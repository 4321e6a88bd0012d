(* Checker-stack tests: a clean workload must replay clean through
   all three checkers, the history log must round-trip exactly, the
   contention-manager decision events must agree with the observed
   outcomes, and — the teeth — a seeded window-edge serializability
   bug (non-atomic write-back, the class fixed in PR 1) must be
   caught by the oracle with a cycle witness. *)

open Tm2c_core
open Tm2c_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(total = 8) ?(service = 4) ?(seed = 42) () =
  {
    Runtime.platform = Tm2c_noc.Platform.scc;
    total_cores = total;
    service_cores = service;
    deployment = Runtime.Dedicated;
    policy = Cm.Fair_cm;
    wmode = Tx.Lazy;
    batching = true;
    max_skew_ns = 3_000.0;
    seed;
    mem_words = 1 lsl 18;
  }

(* A contended counter run with the collector tapped in: every core
   increments one shared word, so the trace carries plenty of
   arbitrations, enemy aborts, and status-CAS aborts. *)
let collect_counter ?(per_core = 50) () =
  let c = cfg () in
  let t = Runtime.create c in
  let col = Collector.create () in
  Collector.attach col (Runtime.trace t);
  let counter = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
  Runtime.start_services t;
  Array.iter
    (fun core ->
      let ctx = Runtime.app_ctx t core in
      Runtime.spawn_app t core (fun () ->
          for _ = 1 to per_core do
            Tx.atomic ctx (fun () ->
                Tx.write ctx counter (Tx.read ctx counter + 1));
            Runtime.poll_service t ~core
          done))
    (Runtime.app_cores t);
  let _ = Runtime.run t ~until:1e12 () in
  Collector.detach (Runtime.trace t);
  Collector.to_list col

let test_clean_run_passes () =
  let events = collect_counter () in
  let r = Check.run_list events in
  check "clean counter run passes all checkers" true (Check.passed r);
  check_int "no failures" 0 (Check.n_failures r);
  check "some transactions checked" true
    (Array.length r.Check.serial.Serial.txns > 0);
  check "some grants replayed" true (r.Check.lockset.Lockset.n_grants > 0)

let test_histlog_roundtrip () =
  let events = collect_counter ~per_core:10 () in
  check "trace nonempty" true (events <> []);
  let path = Filename.temp_file "tm2c_hist" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Histlog.save path (Check.iter_of_list events);
      let loaded = Histlog.load path in
      check_int "same event count" (List.length events) (List.length loaded);
      (* Hex-float timestamps make the round-trip exact, so plain
         structural equality must hold. *)
      check "events round-trip exactly" true (events = loaded))

let test_histlog_rejects_garbage () =
  let path = Filename.temp_file "tm2c_hist" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# not a history log\n";
      close_out oc;
      check "unknown header rejected" true
        (match Histlog.load path with
        | _ -> false
        | exception Failure _ -> true))

(* One decision event per CM arbitration: a server resolves at most
   one request per virtual instant, so two identical [Lock_conflict]
   payloads at the same timestamp would mean a double emission. *)
let test_one_decision_per_arbitration () =
  let events = collect_counter () in
  let seen = Hashtbl.create 256 in
  let n = ref 0 in
  List.iter
    (fun (time, ev) ->
      match ev with
      | Event.Lock_conflict _ ->
          incr n;
          check "no duplicate decision event" false (Hashtbl.mem seen (time, ev));
          Hashtbl.add seen (time, ev) ()
      | _ -> ())
    events;
  check "arbitrations observed" true (!n > 0)

(* [requester_wins] agreement, winning direction: every enemy-abort
   CAS is preceded by a decision at the same server/requester/address
   that went the winner's way. *)
let test_enemy_abort_follows_winning_decision () =
  let events = Array.of_list (collect_counter ()) in
  let n_ena = ref 0 in
  Array.iteri
    (fun i (_, ev) ->
      match ev with
      | Event.Enemy_aborted { server; winner; addr; _ } ->
          incr n_ena;
          let rec back j =
            if j < 0 then
              Alcotest.failf
                "no Lock_conflict precedes the Enemy_aborted at seq %d" i
            else
              match snd events.(j) with
              | Event.Lock_conflict
                  { server = s; requester; addr = a; requester_wins; _ }
                when s = server && requester = winner && a = addr ->
                  check "decision preceding the CAS was a win" true
                    requester_wins
              | _ -> back (j - 1)
          in
          back (i - 1)
      | _ -> ())
    events;
  check "enemy aborts observed" true (!n_ena > 0)

(* [requester_wins] agreement, losing direction: a requester that
   loses an arbitration receives a Conflicted reply, so the attempt
   it was running must end in [Tx_aborted] — never [Tx_committed]. *)
let test_losing_requester_aborts () =
  let events = Array.of_list (collect_counter ()) in
  let n_losses = ref 0 in
  Array.iteri
    (fun i (_, ev) ->
      match ev with
      | Event.Lock_conflict { requester; requester_wins = false; _ } ->
          incr n_losses;
          let rec next j =
            if j >= Array.length events then () (* horizon: unfinished *)
            else
              match snd events.(j) with
              | Event.Tx_committed { core; _ } when core = requester ->
                  Alcotest.failf
                    "core %d committed the attempt in which it lost the \
                     arbitration at seq %d"
                    requester i
              | Event.Tx_aborted { core; _ } when core = requester -> ()
              | _ -> next (j + 1)
          in
          next (i + 1)
      | _ -> ())
    events;
  check "lost arbitrations observed" true (!n_losses > 0)

(* The mutation test: replay the trace a *non-atomic* write-back
   would leave behind — the bug class PR 1 fixed, where a run horizon
   (or an interleaved reader) could observe the write set half
   applied. T0 buffers A:=1, B:=1 and publishes; T1 reads the new A
   but the old B from inside the write-back window. No lock rule is
   broken (T0's releases go out at its publish point), yet the
   history is not serializable: T0 -> T1 on A (WR) and T1 -> T0 on B
   (RW) close a cycle the oracle must report. *)
let test_mutation_nonatomic_writeback_caught () =
  let a = 100 and b = 101 in
  let e k = k in
  let events =
    [
      (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
      (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
      (3.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 0 });
      (4.0, Event.Tx_read { core = 0; addr = b; granted = true; value = 0 });
      (5.0, Event.Tx_write { core = 0; addr = a; value = 1 });
      (6.0, Event.Tx_write { core = 0; addr = b; value = 1 });
      (7.0, Event.Tx_commit_begin { core = 0; attempt = 1; n_writes = 2 });
      (8.0, Event.Wlock_granted { core = 0; addrs = [ a; b ] });
      (9.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 2 });
      (* the fractured window: A already visible, B not yet *)
      (10.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 1 });
      (11.0, Event.Tx_read { core = 1; addr = b; granted = true; value = 0 });
      (12.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 11.0 });
      (13.0, Event.Tx_commit_begin { core = 1; attempt = 1; n_writes = 0 });
      (14.0, Event.Tx_publish { core = 1; attempt = 1; n_writes = 0 });
      (15.0, Event.Tx_committed { core = 1; attempt = 1; duration_ns = 13.0 });
    ]
    |> List.map e
  in
  let r = Check.run_list events in
  check "history itself is well-formed" true
    (r.Check.history.History.anomalies = []);
  check "lock discipline is clean (the bug is not a lock bug)" true
    (Lockset.ok r.Check.lockset);
  check "oracle rejects the history" false (Serial.ok r.Check.serial);
  check "overall verdict fails" false (Check.passed r);
  (match r.Check.serial.Serial.cycle with
  | None -> Alcotest.fail "expected a conflict-graph cycle"
  | Some c ->
      check_int "minimal witness: both transactions on the cycle" 2
        (List.length c.Serial.c_txns);
      let kinds =
        List.map (fun ed -> ed.Serial.e_kind) c.Serial.c_edges
        |> List.sort_uniq compare
      in
      check "cycle mixes WR and RW dependencies" true
        (kinds = [ Serial.Wr; Serial.Rw ] || kinds = [ Serial.Rw; Serial.Wr ]));
  let report = Check.report_string r in
  check "witness names the cycle" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i =
         i + m <= n && (String.sub s i m = sub || go (i + 1))
       in
       go 0
     in
     contains report "cycle")

(* The same two transactions with an atomic write-back (T1 reads both
   words after the burst) must sail through: the oracle's rejection
   above is specific to the fractured window, not to the shape. *)
let test_atomic_writeback_passes () =
  let a = 100 and b = 101 in
  let events =
    [
      (1.0, Event.Tx_start { core = 0; attempt = 1; elastic = false });
      (2.0, Event.Tx_start { core = 1; attempt = 1; elastic = false });
      (3.0, Event.Tx_read { core = 0; addr = a; granted = true; value = 0 });
      (4.0, Event.Tx_read { core = 0; addr = b; granted = true; value = 0 });
      (5.0, Event.Tx_write { core = 0; addr = a; value = 1 });
      (6.0, Event.Tx_write { core = 0; addr = b; value = 1 });
      (7.0, Event.Tx_commit_begin { core = 0; attempt = 1; n_writes = 2 });
      (8.0, Event.Wlock_granted { core = 0; addrs = [ a; b ] });
      (9.0, Event.Tx_publish { core = 0; attempt = 1; n_writes = 2 });
      (10.0, Event.Tx_read { core = 1; addr = a; granted = true; value = 1 });
      (11.0, Event.Tx_read { core = 1; addr = b; granted = true; value = 1 });
      (12.0, Event.Tx_committed { core = 0; attempt = 1; duration_ns = 11.0 });
      (13.0, Event.Tx_commit_begin { core = 1; attempt = 1; n_writes = 0 });
      (14.0, Event.Tx_publish { core = 1; attempt = 1; n_writes = 0 });
      (15.0, Event.Tx_committed { core = 1; attempt = 1; duration_ns = 13.0 });
    ]
  in
  let r = Check.run_list events in
  check "atomic write-back passes" true (Check.passed r)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Lockset mutation: a DS server that double-releases a write lock
   would be able to grant it to a second writer while the first still
   holds it. Simulate the aftermath by injecting a conflicting
   [Wlock_granted] right after every real one in an otherwise clean
   stream; the protocol checker must reject with a witness naming the
   exclusivity breach. *)
let double_wlock_grants events =
  List.concat_map
    (fun (time, ev) ->
      match ev with
      | Event.Wlock_granted { core; addrs } when addrs <> [] ->
          let enemy = if core = 1 then 3 else 1 in
          [ (time, ev); (time, Event.Wlock_granted { core = enemy; addrs }) ]
      | _ -> [ (time, ev) ])
    events

let test_mutation_double_wlock_grant_caught () =
  let events = collect_counter ~per_core:10 () in
  check "unmutated stream is clean" true
    (Lockset.ok (Lockset.analyze (Check.iter_of_list events)));
  let mutated = double_wlock_grants events in
  let r = Lockset.analyze (Check.iter_of_list mutated) in
  check "double grant rejected" false (Lockset.ok r);
  check "witness names the exclusivity breach" true
    (List.exists
       (fun v -> contains v.Lockset.v_message "write-lock grant")
       r.Lockset.violations)

(* Lockset mutation: releasing a read lock before the attempt's end in
   a *non-elastic* transaction breaks two-phase locking. Inject an
   [Rlock_released] right after the first granted read; the checker
   must reject with a two-phase witness. *)
let test_mutation_early_read_release_caught () =
  let events = collect_counter ~per_core:10 () in
  let injected = ref false in
  let mutated =
    List.concat_map
      (fun (time, ev) ->
        match ev with
        | Event.Tx_read { core; addr; granted = true; _ } when not !injected ->
            injected := true;
            [ (time, ev); (time, Event.Rlock_released { core; addr }) ]
        | _ -> [ (time, ev) ])
      events
  in
  check "mutation applied" true !injected;
  let r = Lockset.analyze (Check.iter_of_list mutated) in
  check "early release rejected" false (Lockset.ok r);
  check "witness names the two-phase violation" true
    (List.exists
       (fun v -> contains v.Lockset.v_message "two-phase violation")
       r.Lockset.violations)

(* ---- the event codec ---- *)

(* One generator per Event constructor, in declaration order, so case
   [i] must come out with [Event.index = i]. Small ranges keep shrunk
   counterexamples readable; -1 is the "outside any attempt" value. *)
let event_cases =
  let open QCheck.Gen in
  let id = int_bound 63 and n = int_range (-1) 10_000 in
  let ns = float_bound_inclusive 1e9 in
  let kind = oneofl [ "read_lock"; "write_locks"; "release_reads"; "release_writes" ] in
  let conflict = oneofl Types.[ Raw; Waw; War ] in
  let cause = oneofl Types.[ None; Some Raw; Some Waw; Some War ] in
  let reason = oneofl Types.[ Shed_queue_full; Shed_no_tokens; Shed_deadline ] in
  [|
    (let+ core = id and+ attempt = n and+ elastic = bool in
     Event.Tx_start { core; attempt; elastic });
    (let+ core = id and+ addr = n and+ granted = bool and+ value = n in
     Event.Tx_read { core; addr; granted; value });
    (let+ core = id and+ addr = n and+ value = n in
     Event.Tx_write { core; addr; value });
    (let+ core = id and+ attempt = n and+ n_writes = n in
     Event.Tx_commit_begin { core; attempt; n_writes });
    (let+ addr = n and+ value = n in
     Event.Host_write { addr; value });
    (let+ core = id and+ addr = n in
     Event.Rlock_released { core; addr });
    (let+ core = id and+ addrs = list_size (int_bound 4) nat in
     Event.Wlock_granted { core; addrs });
    (let+ core = id and+ attempt = n and+ n_writes = n in
     Event.Tx_publish { core; attempt; n_writes });
    (let+ core = id and+ attempt = n and+ duration_ns = ns in
     Event.Tx_committed { core; attempt; duration_ns });
    (let+ core = id and+ attempt = n and+ conflict = cause in
     Event.Tx_aborted { core; attempt; conflict });
    (let+ server = id and+ requester = id and+ enemy = id and+ addr = n
     and+ conflict = conflict and+ requester_wins = bool in
     Event.Lock_conflict { server; requester; enemy; addr; conflict; requester_wins });
    (let+ server = id and+ winner = id and+ victim = id and+ addr = n
     and+ conflict = conflict in
     Event.Enemy_aborted { server; winner; victim; addr; conflict });
    (let+ core = id and+ server = id and+ req_id = n and+ kind = kind
     and+ n_addrs = n in
     Event.Req_sent { core; server; req_id; kind; n_addrs });
    (let+ server = id and+ requester = id and+ req_id = n and+ kind = kind
     and+ queue_depth = n and+ occupancy = n in
     Event.Service { server; requester; req_id; kind; queue_depth; occupancy });
    (let+ server = id and+ requester = id and+ req_id = n in
     Event.Service_done { server; requester; req_id });
    (let+ core = id in
     Event.Barrier { core });
    (let+ src = id and+ dst = id in
     Event.Msg_dropped { src; dst });
    (let+ src = id and+ dst = id in
     Event.Msg_duplicated { src; dst });
    (let+ core = id and+ server = id and+ req_id = n and+ nth = n in
     Event.Req_resent { core; server; req_id; nth });
    (let+ core = id and+ attempt = n in
     Event.Core_crashed { core; attempt });
    (let+ server = id and+ victim = id and+ addr = n and+ aborted = bool in
     Event.Lease_reclaimed { server; victim; addr; aborted });
    (let+ server = id in
     Event.Server_crashed { server });
    (let+ part = id and+ epoch = n and+ by = id in
     Event.Epoch_bumped { part; epoch; by });
    (let+ server = id and+ src = id and+ part = id and+ n_addrs = n in
     Event.Replica_applied { server; src; part; n_addrs });
    (let+ server = id and+ part = id and+ epoch = n and+ merged = n in
     Event.Failover_done { server; part; epoch; merged });
    (let+ server = id and+ core = id and+ req_epoch = n and+ cur_epoch = n in
     Event.Stale_epoch_rejected { server; core; req_epoch; cur_epoch });
    (let+ core = id and+ tenant = id and+ queue_depth = n in
     Event.Req_admitted { core; tenant; queue_depth });
    (let+ core = id and+ tenant = id and+ reason = reason and+ retry_after_ns = ns in
     Event.Req_shed { core; tenant; reason; retry_after_ns });
    (let+ core = id and+ tenant = id and+ waited_ns = ns in
     Event.Req_expired { core; tenant; waited_ns });
    (let+ core = id and+ tenant = id and+ retries = n in
     Event.Retry_budget_exhausted { core; tenant; retries });
  |]

(* The fault/hardening records of the v2 log format, hand-built. *)
let fault_events =
  [
    Event.Msg_dropped { src = 1; dst = 2 };
    Event.Msg_duplicated { src = 3; dst = 0 };
    Event.Req_resent { core = 1; server = 2; req_id = 7; nth = 1 };
    Event.Core_crashed { core = 3; attempt = 5 };
    Event.Lease_reclaimed { server = 2; victim = 3; addr = 9; aborted = true };
    Event.Lease_reclaimed { server = 0; victim = 1; addr = 11; aborted = false };
  ]

(* A history is one event per constructor (in declaration order),
   then random extras and sometimes the hand-built fault records, all
   stamped with random virtual times. *)
let codec_roundtrip_prop =
  let open QCheck.Gen in
  let gen =
    let* one_each = flatten_a event_cases in
    let* extra = list_size (int_bound 30) (oneof (Array.to_list event_cases)) in
    let* fault = oneofl [ []; fault_events ] in
    let events = Array.to_list one_each @ extra @ fault in
    let+ times = list_repeat (List.length events) (float_bound_inclusive 1e9) in
    (Array.to_list one_each, List.combine times events)
  in
  let print (_, h) =
    String.concat "\n"
      (List.map (fun (t, ev) -> Printf.sprintf "%h %s" t (Event.to_string ev)) h)
  in
  QCheck.Test.make ~name:"histlog save/load is the identity on every constructor"
    ~count:200 (QCheck.make ~print gen)
    (fun (one_each, history) ->
      let path = Filename.temp_file "tm2c_hist" ".log" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Histlog.save path (Check.iter_of_list history);
          (* Case i yields constructor i: [index] is a bijection onto
             [0, Array.length names). *)
          List.map Event.index one_each
          = List.init (Array.length Event.names) Fun.id
          && Histlog.load path = history))

(* A v5 log with every record tag, written by the hand-coded writer
   that preceded the codec: re-writing what it loads must reproduce it
   byte for byte. *)
let test_histlog_golden_fixture () =
  let fixture =
    List.find Sys.file_exists
      [ "fixtures/histlog/all_records.log"; "test/fixtures/histlog/all_records.log" ]
  in
  let original = In_channel.with_open_bin fixture In_channel.input_all in
  let path = Filename.temp_file "tm2c_hist" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Histlog.save path (Check.iter_of_list (Histlog.load fixture));
      Alcotest.(check string)
        "re-written log" original
        (In_channel.with_open_bin path In_channel.input_all))

(* Pre-fault-layer v1 logs stay loadable: only the header differs when
   no fault records are present. *)
let test_histlog_v1_header_accepted () =
  let events = collect_counter ~per_core:5 () in
  let path = Filename.temp_file "tm2c_hist" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Histlog.save path (Check.iter_of_list events);
      let contents = In_channel.with_open_text path In_channel.input_all in
      let body =
        match String.index_opt contents '\n' with
        | Some i -> String.sub contents i (String.length contents - i)
        | None -> Alcotest.fail "history log has no header line"
      in
      let oc = open_out path in
      output_string oc ("# tm2c-history v1" ^ body);
      close_out oc;
      check "v1 header accepted" true (Histlog.load path = events))

(* ------------------------------------------------------------------ *)
(* Lockset held-lock index.                                            *)
(* ------------------------------------------------------------------ *)

let lockset_of events = Lockset.analyze (Check.iter_of_list events)

let messages r = List.map (fun v -> v.Lockset.v_message) r.Lockset.violations

let seq_events evs = List.mapi (fun i ev -> (float_of_int (i + 1), ev)) evs

(* Core 1 holds the write lock on X and is doomed by an enemy abort on
   Y; core 3 is granted X over core 1's stale entry. Core 1's index
   still names X, but its abort must not free core 3's lock: core 5's
   later grant on X is an exclusivity violation. *)
let test_index_keeps_overwritten_wlock () =
  let x = 100 and y = 101 in
  let r =
    lockset_of
      (seq_events
         [
           Event.Tx_start { core = 1; attempt = 1; elastic = false };
           Event.Tx_start { core = 3; attempt = 1; elastic = false };
           Event.Tx_read { core = 1; addr = y; granted = true; value = 0 };
           Event.Tx_write { core = 1; addr = x; value = 1 };
           Event.Wlock_granted { core = 1; addrs = [ x ] };
           Event.Enemy_aborted
             {
               server = 2;
               winner = 3;
               victim = 1;
               addr = y;
               conflict = Types.War;
             };
           Event.Wlock_granted { core = 3; addrs = [ y; x ] };
           Event.Tx_aborted { core = 1; attempt = 1; conflict = None };
           Event.Tx_start { core = 5; attempt = 1; elastic = false };
           Event.Wlock_granted { core = 5; addrs = [ x ] };
         ])
  in
  Alcotest.(check (list string))
    "only core 5's grant over core 3 is a violation"
    [ "write-lock grant to core 5 on addr 100 while core 3 holds the write lock" ]
    (messages r);
  check_int "grants" 5 r.Lockset.n_grants

(* An elastic read released and re-granted in the same attempt leaves
   a duplicate in the index: the lock is held again until the
   attempt's end, and dropped cleanly there. *)
let test_index_elastic_regrant () =
  let x = 100 in
  let prefix =
    [
      Event.Tx_start { core = 1; attempt = 1; elastic = true };
      Event.Tx_read { core = 1; addr = x; granted = true; value = 0 };
      Event.Rlock_released { core = 1; addr = x };
      Event.Tx_read { core = 1; addr = x; granted = true; value = 0 };
    ]
  and grant = [ Event.Wlock_granted { core = 3; addrs = [ x ] } ]
  and finish =
    [
      Event.Tx_commit_begin { core = 1; attempt = 1; n_writes = 0 };
      Event.Tx_publish { core = 1; attempt = 1; n_writes = 0 };
      Event.Tx_committed { core = 1; attempt = 1; duration_ns = 4.0 };
    ]
  in
  Alcotest.(check (list string))
    "re-granted read is held until the end"
    [ "write-lock grant to core 3 on addr 100 while core 1 holds a read lock" ]
    (messages (lockset_of (seq_events (prefix @ grant))));
  let r = lockset_of (seq_events (prefix @ finish @ grant)) in
  Alcotest.(check (list string)) "dropped cleanly at the end" [] (messages r);
  check_int "grants" 3 r.Lockset.n_grants

(* A blind write (no prior read of the address) is indexed by its
   write grant alone and released at the publish point. The workload
   shapes never produce one: their writes are read-modify-writes, so
   a read grant would index the address anyway. *)
let test_index_blind_write_released () =
  let x = 100 in
  let r =
    lockset_of
      (seq_events
         [
           Event.Tx_start { core = 1; attempt = 1; elastic = false };
           Event.Tx_write { core = 1; addr = x; value = 1 };
           Event.Tx_commit_begin { core = 1; attempt = 1; n_writes = 1 };
           Event.Wlock_granted { core = 1; addrs = [ x ] };
           Event.Tx_publish { core = 1; attempt = 1; n_writes = 1 };
           Event.Tx_start { core = 3; attempt = 1; elastic = false };
           Event.Tx_read { core = 3; addr = x; granted = true; value = 1 };
           Event.Tx_committed { core = 1; attempt = 1; duration_ns = 3.0 };
         ])
  in
  Alcotest.(check (list string)) "released at publish" [] (messages r)

(* Crash-stop releases nothing: a crashed core's read and write locks
   stay held, so grants over them are violations. *)
let test_index_crashed_core_holds () =
  let x = 100 and y = 101 in
  let r =
    lockset_of
      (seq_events
         [
           Event.Tx_start { core = 1; attempt = 1; elastic = false };
           Event.Tx_read { core = 1; addr = x; granted = true; value = 0 };
           Event.Tx_write { core = 1; addr = y; value = 1 };
           Event.Wlock_granted { core = 1; addrs = [ y ] };
           Event.Core_crashed { core = 1; attempt = 1 };
           Event.Tx_start { core = 3; attempt = 1; elastic = false };
           Event.Wlock_granted { core = 3; addrs = [ x ] };
           Event.Tx_read { core = 3; addr = y; granted = true; value = 0 };
         ])
  in
  Alcotest.(check (list string))
    "both of the crashed core's locks still held"
    [
      "write-lock grant to core 3 on addr 100 while core 1 holds a read lock";
      "read grant to core 3 on addr 101 while core 1 holds the write lock";
    ]
    (messages r)

(* Differential: the indexed lockset against the full-scan reference
   ([Lockset_ref]) over the fuzz matrix — the six @check shapes x
   seeds x the fault plans (index [n_plans] is the fault-free run). *)
let lockset_differential_prop =
  let open Tm2c_harness.Fuzz_matrix in
  let shapes = Array.of_list shapes in
  let plans = Array.of_list (plan_matrix ~smoke:false) in
  let n_plans = Array.length plans in
  QCheck.Test.make ~name:"indexed lockset = full-scan reference on fuzz runs"
    ~count:40
    QCheck.(
      triple
        (int_bound (Array.length shapes - 1))
        (int_bound 999) (int_bound n_plans))
    (fun (shape, seed, plan) ->
      let sh = shapes.(shape) in
      let plan = if plan = n_plans then None else Some plans.(plan) in
      let _, events =
        run_shape sh ~seed ~plan ~hardened:(plan <> None) ~collect:true
      in
      let iter = Check.iter_of_list events in
      let got = Lockset.analyze iter and want = Lockset_ref.analyze iter in
      if got = want then true
      else
        QCheck.Test.fail_reportf
          "reports diverge on %s seed=%d plan=%s: %d vs %d grants, %d vs %d \
           violations"
          sh.sh_name seed
          (match plan with
          | Some p -> Tm2c_noc.Fault.to_spec p
          | None -> "none")
          got.Lockset.n_grants want.Lockset.n_grants
          (List.length got.Lockset.violations)
          (List.length want.Lockset.violations))

(* The same differential on a stream with violations: the double
   write-grant mutation. *)
let test_lockset_differential_mutation () =
  let events = collect_counter ~per_core:10 () in
  let mutated = double_wlock_grants events in
  let iter = Check.iter_of_list mutated in
  let got = Lockset.analyze iter in
  check "mutation rejected" false (Lockset.ok got);
  check "report equals the full-scan reference" true
    (got = Lockset_ref.analyze iter)

let test_liveness_budget () =
  (* Synthetic starving core: [budget] consecutive aborts trip the
     monitor; one fewer stays clean. *)
  let mk n =
    List.concat
      (List.init n (fun i ->
           let t = float_of_int (i * 2) in
           [
             (t, Event.Tx_start { core = 0; attempt = i + 1; elastic = false });
             ( t +. 1.0,
               Event.Tx_aborted { core = 0; attempt = i + 1; conflict = None }
             );
           ]))
  in
  let r = Check.run_list ~liveness_budget:5 (mk 5) in
  check "budget-length chain trips the monitor" false
    (Liveness.ok r.Check.liveness);
  let r = Check.run_list ~liveness_budget:5 (mk 4) in
  check "shorter chain is clean" true (Liveness.ok r.Check.liveness)

let test_status_label () =
  Alcotest.(check string)
    "status-CAS abort label" "STATUS"
    (Event.conflict_opt_to_string None)

let suite =
  [
    Alcotest.test_case "clean counter run passes" `Slow test_clean_run_passes;
    Alcotest.test_case "histlog round-trips exactly" `Quick
      test_histlog_roundtrip;
    Alcotest.test_case "histlog rejects unknown header" `Quick
      test_histlog_rejects_garbage;
    Alcotest.test_case "one decision event per arbitration" `Slow
      test_one_decision_per_arbitration;
    Alcotest.test_case "enemy abort follows a winning decision" `Slow
      test_enemy_abort_follows_winning_decision;
    Alcotest.test_case "losing requester aborts" `Slow
      test_losing_requester_aborts;
    Alcotest.test_case "mutation: non-atomic write-back caught" `Quick
      test_mutation_nonatomic_writeback_caught;
    Alcotest.test_case "atomic write-back passes" `Quick
      test_atomic_writeback_passes;
    Alcotest.test_case "mutation: double write-lock grant caught" `Quick
      test_mutation_double_wlock_grant_caught;
    Alcotest.test_case "mutation: early read-lock release caught" `Quick
      test_mutation_early_read_release_caught;
    QCheck_alcotest.to_alcotest codec_roundtrip_prop;
    Alcotest.test_case "histlog golden fixture re-writes byte-for-byte" `Quick
      test_histlog_golden_fixture;
    Alcotest.test_case "histlog accepts v1 header" `Quick
      test_histlog_v1_header_accepted;
    Alcotest.test_case "lockset index: overwritten write lock kept" `Quick
      test_index_keeps_overwritten_wlock;
    Alcotest.test_case "lockset index: elastic re-grant" `Quick
      test_index_elastic_regrant;
    Alcotest.test_case "lockset index: blind write released" `Quick
      test_index_blind_write_released;
    Alcotest.test_case "lockset index: crashed core holds" `Quick
      test_index_crashed_core_holds;
    QCheck_alcotest.to_alcotest ~long:true lockset_differential_prop;
    Alcotest.test_case "lockset differential: double write grant" `Quick
      test_lockset_differential_mutation;
    Alcotest.test_case "liveness budget" `Quick test_liveness_budget;
    Alcotest.test_case "STATUS abort label" `Quick test_status_label;
  ]
