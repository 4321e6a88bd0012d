(* perfbench: one paired benchmark for the simulator.

   Usage:
     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--scale tiny] [--tamper bank-total|fingerprint]

   Workloads: bank-checked, hashtable-bare, openloop-recorded. README.md
   beside this file says why each exists and how operations and
   failures are counted.

   One run simulates a fixed set of instances of the workload, each
   seeded from --seed, and pools their virtual-time results, which are
   therefore deterministic for a seed. With --trace 0 it repeats that
   set until S host seconds have passed and reports the end-to-end
   metrics. With --trace 1 it spends half of S on untraced passes,
   then runs the first instance traced (self-profiler, phase
   attribution, captured event stream) and replays the captured
   stream into each layer's public entry point for the per-layer
   metrics.

   Host times are reported in reference seconds: the measured wall
   time scaled by how long a fixed reference kernel took around it,
   so that the machine's own speed drift cancels (see [reference]).

   Each instance's virtual fingerprint (commits, aborts, logical
   events, messages) and minor words must repeat exactly in every
   pass, the traced instance must reproduce the untraced fingerprint,
   and the output checks (money conservation, hash-table invariants,
   checker verdict, overload identities, no horizon cut) must pass.
   Any failure marks every operation of the run failed and exits 1.
   The last line of stdout is one JSON object: correct, attempted,
   failed, metrics. *)

open Tm2c_core
open Tm2c_apps
module Sim = Tm2c_engine.Sim
module Sketch = Tm2c_engine.Sketch
module Trace = Tm2c_engine.Trace
module Exp = Tm2c_harness.Exp
module Stream = Tm2c_check.Stream

let clock = Unix.gettimeofday

type workload = Bank_checked | Hashtable_bare | Openloop_recorded

let workloads =
  [
    ("bank-checked", Bank_checked);
    ("hashtable-bare", Hashtable_bare);
    ("openloop-recorded", Openloop_recorded);
  ]

(* The percentile behind vlat_tail_us, fixed per workload (BENCHMARK.json
   names it in each workload's "why"). p99.9 where its pooled value is
   steady from seed to seed; p99 for the bank (about 11,000 pooled
   operations) and the open loop (whose pooled p99.9 moves by about a
   fifth between seeds). *)
let tail_pct = function
  | Bank_checked -> 99.0
  | Hashtable_bare -> 99.9
  | Openloop_recorded -> 99.0

(* Virtual measurement window (ns) of one instance, and instances per
   run: enough that the pooled virtual results vary little from seed
   to seed. [tiny] is the self-test scale. *)
type scale = { window_ns : workload -> float; instances : workload -> int }

let full =
  {
    window_ns =
      (function Bank_checked -> 20e6 | Hashtable_bare -> 40e6 | Openloop_recorded -> 32e6);
    instances = (function Bank_checked -> 48 | Hashtable_bare -> 16 | Openloop_recorded -> 64);
  }

let tiny =
  { window_ns = (function Bank_checked -> 16e6 | _ -> 2e6); instances = (fun _ -> 2) }

(* Closed loops stop issuing at the window's end; the drain lets the
   operations still in flight finish before the safety horizon. The
   simulation goes idle once the last one returns, so a long horizon
   costs nothing; on the bank a balance scan begun near the window's
   end can keep aborting for over 20 virtual ms, which is slow, not
   stuck, while one still running after a virtual second is. *)
let drain_ns = 1e9

(* Open loop: the fig_overload protected cell (token-bucket admission
   refilling at 0.8x the saturation BENCH_overload.json records, queue
   and bucket sized to half a deadline of service, 3-retry budget) at
   a fixed offered rate that is not re-probed per run. The rate sits
   below the refill rate and the client deadline is 3 ms rather than
   the cell's 300 us: with the cell's own settings some requests run
   out of retries or finish late on every seed, and the benchmark's
   workloads must not fail operations. Admission still queues every
   request, so latency stays queueing-sensitive. *)
let ol_sat_per_ms = 47.625

let ol_rate_per_ms = 0.7 *. ol_sat_per_ms

let ol_deadline_ns = 3e6

(* --- Host-speed reference ------------------------------------------ *)

(* A fixed kernel of hashing, allocation and sorting that shares no
   code with the simulator, so changes to the repository cannot move
   it while the machine's speed does. *)
let reference () =
  let t0 = clock () in
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 0 to 29_999 do
    Hashtbl.replace h ((i * 7919) land 4095) i;
    let j = Option.value (Hashtbl.find_opt h (i land 4095)) ~default:0 in
    l := float_of_int (i + j) :: !l
  done;
  let a = Array.of_list !l in
  Array.sort compare a;
  ignore (Sys.opaque_identity a);
  clock () -. t0

(* Nominal duration of one [reference] call: one reference second is
   the time in which the kernel runs [1 / ref_nominal_s] times. *)
let ref_nominal_s = 0.01

let calibrate ~ref0 ~ref1 wall_s = wall_s *. ref_nominal_s /. ((ref0 +. ref1) /. 2.0)

(* --- Event capture ---------------------------------------------------- *)

(* Captured event stream of the traced instance, replayed into each
   layer afterwards. *)
type capture = {
  mutable times : float array;
  mutable evs : Event.t array;
  mutable n : int;
}

let capture_push c ts ev =
  if c.n = Array.length c.times then begin
    let cap = max 4096 (2 * c.n) in
    let times = Array.make cap 0.0 and evs = Array.make cap ev in
    Array.blit c.times 0 times 0 c.n;
    Array.blit c.evs 0 evs 0 c.n;
    c.times <- times;
    c.evs <- evs
  end;
  c.times.(c.n) <- ts;
  c.evs.(c.n) <- ev;
  c.n <- c.n + 1

let capture_iter c f =
  for i = 0 to c.n - 1 do
    f c.times.(i) c.evs.(i)
  done

(* --- One instance ------------------------------------------------------ *)

type fingerprint = {
  commits : int;
  aborts : int;
  events : int;  (** logical: processed + elided *)
  messages : int;
}

type outcome = {
  fp : fingerprint;
  processed : int;
  window_ms : float;
  good : int;  (** commits in the window (closed) or goodput (open) *)
  win_commits : int;
  win_attempts : int;
  lat : Sketch.t;  (** operation latency, ns *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  verdict : Stream.verdict option;
}

(* A set-up instance: the runtime plus the closure that drives its
   measured window (drive, drain, sinks, checker finish). *)
type instance = { rt : Runtime.t; go : unit -> outcome }

type mode = { traced : bool; cap : capture option; tamper : string option }

let fingerprint rt ~processed =
  let stats = Runtime.stats rt in
  {
    commits = Stats.total_commits stats;
    aborts = Stats.total_aborts stats;
    events = processed + Sim.elided (Runtime.sim rt);
    messages = Tm2c_noc.Network.sent (Runtime.env rt).System.net;
  }

let instrument rt mode =
  if mode.traced then begin
    Runtime.enable_self_profile rt ~clock;
    Runtime.enable_profiling rt
  end

(* Install the capture beside whatever sink the workload uses. *)
let attach_capture rt mode sink =
  let trace = Runtime.trace rt in
  match (mode.cap, sink) with
  | Some c, Some s -> Trace.set_sink trace (Some (Trace.fanout s (capture_push c)))
  | Some c, None ->
      Trace.set_sink trace (Some (capture_push c));
      Trace.enable trace
  | None, _ -> ()

(* Closed loop: time each operation in virtual time, from the mix
   thunk's entry to its return (retries included), then drain. *)
let closed_loop rt ~window_ns mix =
  let sim = Runtime.sim rt in
  let lat = Sketch.create () in
  let started = ref 0 and completed = ref 0 in
  let timed core ctx prng =
    let op = mix core ctx prng in
    fun () ->
      incr started;
      let t0 = Sim.now sim in
      op ();
      Sketch.add lat (Sim.now sim -. t0);
      incr completed
  in
  let r = Workload.drive rt ~duration_ns:window_ns timed in
  let drained = Runtime.run rt ~until:(window_ns +. drain_ns) () in
  let processed = r.Workload.events + drained in
  {
    fp = fingerprint rt ~processed;
    processed;
    window_ms = r.Workload.duration_ms;
    good = r.Workload.commits;
    win_commits = r.Workload.commits;
    win_attempts = r.Workload.commits + r.Workload.aborts;
    lat;
    attempted = !started;
    failed = !started - !completed;
    checks =
      [
        ("horizon_hit is false", not r.Workload.horizon_hit);
        ("no operation cut off by the safety horizon", !started = !completed);
      ];
    verdict = None;
  }

let accounts = 512

let initial = 1000

let setup_bank ~seed ~window_ns mode =
  let rt = Runtime.create (Exp.config ~seed ~total:48 ()) in
  instrument rt mode;
  let stream = Stream.create () in
  Stream.attach stream (Runtime.trace rt);
  attach_capture rt mode (Some (Stream.feed stream));
  let bank = Bank.create rt ~accounts ~initial in
  let go () =
    let o = closed_loop rt ~window_ns (Exp.bank_mix bank ~balance:20) in
    let v = Stream.finish stream in
    let total = Bank.total bank + if mode.tamper = Some "bank-total" then 1 else 0 in
    {
      o with
      checks =
        ("bank money conserved (Bank.total)", total = accounts * initial)
        :: ("streaming checker passed", Stream.passed v)
        :: o.checks;
      verdict = Some v;
    }
  in
  { rt; go }

let setup_hashtable ~seed ~window_ns mode =
  let rt = Runtime.create (Exp.config ~seed ~total:48 ()) in
  instrument rt mode;
  attach_capture rt mode None;
  let ht = Hashtable.create rt ~n_buckets:64 in
  let n = 4 * 64 in
  let range = 2 * n in
  Hashtable.populate ht (Runtime.fork_prng rt) ~n ~key_range:range;
  let go () =
    let o = closed_loop rt ~window_ns (Exp.ht_mix ht ~updates:20 ~range) in
    let invariants =
      match Hashtable.check_invariants ht with
      | () -> true
      | exception Invalid_argument _ -> false
    in
    { o with checks = ("Hashtable.check_invariants passes", invariants) :: o.checks }
  in
  { rt; go }

let setup_openloop ~seed ~window_ns mode =
  let rt = Runtime.create (Exp.config ~seed ~total:16 ()) in
  instrument rt mode;
  Runtime.enable_tracing rt;
  attach_capture rt mode None;
  Runtime.enable_recorder rt ~window_ns:(window_ns /. 16.0) ();
  let deadline_ms = ol_deadline_ns /. 1e6 in
  let capacity = max 2 (int_of_float (ol_sat_per_ms *. deadline_ms /. 2.0)) in
  let policy =
    Admission.Token_bucket
      { capacity; rate_per_ms = 0.8 *. ol_sat_per_ms; burst = float_of_int capacity }
  in
  let cfg =
    {
      Openloop.default with
      Openloop.arrival = Openloop.Poisson { rate_per_ms = ol_rate_per_ms };
      window_ns;
      drain_ns = window_ns /. 4.0;
      policy;
      retry_budget = 3;
      client_deadline_ns = ol_deadline_ns;
      client_timeout_ns = 1.5 *. ol_deadline_ns;
    }
  in
  let go () =
    let r = Openloop.drive rt cfg in
    let env = Runtime.env rt in
    let o = env.System.overload in
    let fresh = o.System.ol_offered - o.System.ol_retries in
    let processed = r.Workload.events in
    {
      fp = fingerprint rt ~processed;
      processed;
      window_ms = r.Workload.duration_ms;
      good = o.System.ol_goodput;
      win_commits = r.Workload.commits;
      win_attempts = r.Workload.commits + r.Workload.aborts;
      lat = env.System.e2e_lat;
      attempted = fresh;
      failed = fresh - o.System.ol_goodput;
      checks =
        [
          ( "offered = admitted + shed",
            o.System.ol_offered = o.System.ol_admitted + o.System.ol_shed );
          ( "executed + expired <= admitted",
            o.System.ol_executed + o.System.ol_expired <= o.System.ol_admitted );
          ( "goodput <= completed <= executed",
            o.System.ol_goodput <= o.System.ol_completed
            && o.System.ol_completed <= o.System.ol_executed );
          ("horizon_hit is false", not r.Workload.horizon_hit);
        ];
      verdict = None;
    }
  in
  { rt; go }

let setup w scale ~seed mode =
  let window_ns = scale.window_ns w in
  match w with
  | Bank_checked -> setup_bank ~seed ~window_ns mode
  | Hashtable_bare -> setup_hashtable ~seed ~window_ns mode
  | Openloop_recorded -> setup_openloop ~seed ~window_ns mode

type rep = {
  out : outcome;
  host_s : float;  (** reference seconds *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

(* Set up, then time the measured window between two reference runs.
   The instance is returned beside the figures; only the traced
   instance's is kept. *)
let run_rep w scale ~seed mode =
  let ref0 = reference () in
  let inst = setup w scale ~seed mode in
  let g0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let t0 = clock () in
  let out = inst.go () in
  let wall_s = clock () -. t0 in
  let mw1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let ref1 = reference () in
  ( inst,
    {
      out;
      host_s = calibrate ~ref0 ~ref1 wall_s;
      minor_words = mw1 -. mw0;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* --- Statistics ------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let pooled_latency outs =
  let lat = Sketch.create () in
  List.iter (fun o -> Sketch.merge ~into:lat o.lat) outs;
  lat

let pp_fp name f =
  Printf.printf "fingerprint %-12s commits %d aborts %d events %d messages %d\n" name
    f.commits f.aborts f.events f.messages

(* --- Metrics ------------------------------------------------------------ *)

let end_to_end w ~pass ~host_s ~setup_s ~top_heap_words =
  let outs = List.map (fun r -> r.out) pass in
  let f = float_of_int in
  let events = f (sum (fun o -> o.fp.events) outs) in
  let lat = pooled_latency outs in
  [
    ("host_s", "s", host_s);
    ("setup_s", "s", setup_s);
    ("events_per_host_s", "1/s", events /. host_s);
    ("alloc_words_per_event", "words/event", sumf (fun r -> r.minor_words) pass /. events);
    ("peak_heap_mb", "MB", f (top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ( "vthroughput_per_ms",
      "1/ms",
      f (sum (fun o -> o.good) outs) /. sumf (fun o -> o.window_ms) outs );
    ( "commit_rate",
      "ratio",
      f (sum (fun o -> o.win_commits) outs)
      /. f (max 1 (sum (fun o -> o.win_attempts) outs)) );
    ("vlat_p50_us", "us", Sketch.percentile lat 50.0 /. 1e3);
    ("vlat_tail_us", "us", Sketch.percentile lat (tail_pct w) /. 1e3);
  ]

let timed f =
  let t0 = clock () in
  let x = f () in
  (x, clock () -. t0)

let check_metric_names =
  [
    ("check.history.feed_s", "s");
    ("check.lockset.feed_s", "s");
    ("check.serial.analyze_s", "s");
    ("check.liveness.analyze_s", "s");
    ("check.stream.feed_s", "s");
    ("check.stream.finish_s", "s");
    ("check.events", "count");
    ("check.attempts", "count");
    ("check.reads_checked", "count");
    ("check.lock_grants", "count");
    ("check.stream.peak_nodes", "count");
    ("check.max_abort_chain", "count");
  ]

(* Replay the captured bank-checked stream through each checker
   component's public entry point, timing each call (wall seconds). *)
let check_legs cap ~live =
  let b = Tm2c_check.History.builder () in
  let (), history_s = timed (fun () -> capture_iter cap (Tm2c_check.History.feed b)) in
  let h = Tm2c_check.History.finish b in
  let ls = Tm2c_check.Lockset.create () in
  let (), lockset_s = timed (fun () -> capture_iter cap (Tm2c_check.Lockset.feed ls)) in
  let lreport = Tm2c_check.Lockset.finish ls in
  let sreport, serial_s = timed (fun () -> Tm2c_check.Serial.analyze h) in
  let horizon_ns = if cap.n = 0 then 0.0 else cap.times.(cap.n - 1) in
  let lv, liveness_s =
    timed (fun () ->
        Tm2c_check.Liveness.analyze ~budget:Tm2c_check.Check.default_liveness_budget
          ~crashed:[] ~horizon_ns h)
  in
  let s = Stream.create () in
  let (), stream_feed_s = timed (fun () -> capture_iter cap (Stream.feed s)) in
  let v, stream_finish_s = timed (fun () -> Stream.finish s) in
  let values =
    [
      history_s;
      lockset_s;
      serial_s;
      liveness_s;
      stream_feed_s;
      stream_finish_s;
      float_of_int cap.n;
      float_of_int v.Stream.d_attempts;
      float_of_int v.Stream.d_reads_checked;
      float_of_int v.Stream.d_grants;
      float_of_int (Stream.peak_nodes s);
      float_of_int v.Stream.d_max_chain;
    ]
  in
  let checks =
    [
      ("replayed streaming verdict equals the live one", Stream.equal v live);
      ( "replayed lockset, serializability and liveness pass",
        Tm2c_check.Lockset.ok lreport
        && Tm2c_check.Serial.ok sreport
        && Tm2c_check.Liveness.ok lv );
    ]
  in
  (List.map2 (fun (n, u) x -> (n, u, x)) check_metric_names values, checks)

(* Per-layer figures of the traced instance. Host seconds here are
   wall seconds of that one instance; counts are virtual and exact. *)
let layer_metrics inst ~(traced : rep) ~(untraced : rep) cap =
  let rt = inst.rt in
  let env = Runtime.env rt in
  let o = traced.out in
  let i = float_of_int in
  let commits = i (max 1 o.fp.commits) in
  let prof = Runtime.self_profile rt in
  let prof_s name =
    Array.fold_left (fun acc (n, s, _) -> if n = name then acc +. s else acc) 0.0 prof
  in
  let virt_ns = Sim.now (Runtime.sim rt) in
  let servers = Runtime.servers rt in
  let nserv = i (max 1 (List.length servers)) in
  let mean_of f = sumf f servers /. nserv in
  let max_of f = List.fold_left (fun acc s -> Float.max acc (f s)) 0.0 servers in
  let busy s = Dtm.busy_ns s /. virt_ns in
  let net = Tm2c_noc.Network.metrics env.System.net in
  let top_link =
    match Tm2c_noc.Network.top_links ~limit:1 env.System.net with
    | (_, _, n) :: _ -> i n
    | [] -> 0.0
  in
  let stats = Array.to_list (Runtime.stats rt) in
  (* Virtual us spent in each phase per committed transaction, summed
     over committed and aborted attempts (aborts' backoff included). *)
  let phase p =
    let total span =
      sumf
        (fun core -> Tm2c_engine.Span.sum span ~core ~phase:p)
        (List.init (Tm2c_engine.Span.n_cores span) Fun.id)
    in
    (total env.System.span_commit +. total env.System.span_abort) /. commits /. 1e3
  in
  let ov = env.System.overload in
  let recorder_windows, record_event_s =
    match Runtime.recorder rt with
    | None -> (0.0, 0.0)
    | Some live ->
        let r =
          Recorder.create ~env ~window_ns:(Recorder.window_ns live)
            ~servers:(fun () -> Runtime.servers rt)
            ()
        in
        let (), s =
          timed (fun () -> capture_iter cap (fun _ ev -> Recorder.record_event r ev))
        in
        (i (Recorder.n_windows live), s)
  in
  [
    ("engine.wheel_s", "s", prof_s "wheel");
    ("engine.delay_resume_s", "s", prof_s "delay_resume");
    ("engine.mailbox_delivery_s", "s", prof_s "mailbox_delivery");
    ("engine.callback_s", "s", prof_s "callback");
    ("engine.events", "count", i o.processed);
    ("engine.elided", "count", i (o.fp.events - o.processed));
    ("engine.events_per_commit", "events/commit", i o.fp.events /. commits);
    ("noc.network_s", "s", prof_s "network");
    ("noc.messages", "count", i o.fp.messages);
    ("noc.messages_per_commit", "msgs/commit", i o.fp.messages /. commits);
    ("noc.msg_lat_p50_ns", "ns", Sketch.percentile net.Tm2c_noc.Network.latency 50.0);
    ("noc.msg_lat_p99_ns", "ns", Sketch.percentile net.Tm2c_noc.Network.latency 99.0);
    ("noc.poll_scans", "count", i net.Tm2c_noc.Network.poll_scans);
    ("noc.top_link_msgs", "count", top_link);
    ("dtm.dispatch_s", "s", prof_s "dtm");
    ("dtm.served", "count", sumf (fun s -> i (Dtm.served s)) servers);
    ("dtm.queue_depth_mean", "count", mean_of (fun s -> fst (Dtm.queue_depth_stats s)));
    ("dtm.queue_depth_max", "count", max_of (fun s -> i (snd (Dtm.queue_depth_stats s))));
    ("dtm.busy_frac_mean", "ratio", mean_of busy);
    ("dtm.busy_frac_max", "ratio", max_of busy);
    ("dtm.locks_held_mean", "count", mean_of (fun s -> fst (Dtm.occupancy_stats s)));
    ("tx.attempts", "count", i (o.fp.commits + o.fp.aborts));
    ("tx.aborts_raw", "count", i (sum (fun c -> c.Stats.aborts_raw) stats));
    ("tx.aborts_waw", "count", i (sum (fun c -> c.Stats.aborts_waw) stats));
    ("tx.aborts_war", "count", i (sum (fun c -> c.Stats.aborts_war) stats));
    ("tx.worst_attempts", "count", i (Stats.worst_attempts (Runtime.stats rt)));
    ("tx.commit_lat_p50_us", "us", Sketch.percentile env.System.commit_lat 50.0 /. 1e3);
    ("tx.commit_lat_p99_us", "us", Sketch.percentile env.System.commit_lat 99.0 /. 1e3);
  ]
  @ List.init Phase.n (fun p -> ("tx.phase." ^ Phase.names.(p) ^ "_us", "us", phase p))
  @ [
      ("shmem.reads", "count", i (Tm2c_memory.Shmem.n_reads env.System.shmem));
      ("shmem.writes", "count", i (Tm2c_memory.Shmem.n_writes env.System.shmem));
      ("admission.offered", "count", i ov.System.ol_offered);
      ("admission.admitted", "count", i ov.System.ol_admitted);
      ("admission.shed", "count", i ov.System.ol_shed);
      ("admission.expired", "count", i ov.System.ol_expired);
      ("admission.retries", "count", i ov.System.ol_retries);
      ("admission.retry_exhausted", "count", i ov.System.ol_retry_exhausted);
      ("admission.wasted", "count", i ov.System.ol_wasted);
      ("admission.queue_peak", "count", i ov.System.ol_queue_peak);
      ("recorder.windows", "count", recorder_windows);
      ("recorder.record_event_s", "s", record_event_s);
      ("trace.events", "count", i cap.n);
      ("gc.minor_words", "words", untraced.minor_words);
      ("gc.promoted_words", "words", untraced.promoted_words);
      ("gc.major_collections", "count", i untraced.major_collections);
      ("trace_overhead", "ratio", traced.host_s /. untraced.host_s);
    ]

(* --- Driver ------------------------------------------------------------ *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-28s %22s %s\n" n (json_number v) u)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let usage () =
  prerr_endline
    "usage: perfbench --workload bank-checked|hashtable-bare|openloop-recorded \
     --seed N --seconds S --trace 0|1 [--scale tiny] [--tamper \
     bank-total|fingerprint]";
  exit 2

(* A check holds when it holds on every instance. *)
let merge_checks lists =
  List.map
    (fun (name, _) -> (name, List.for_all (fun l -> List.assoc name l) lists))
    (List.hd lists)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and scale = ref full and tamper = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.assoc_opt v workloads with
        | Some w -> workload := Some w
        | None ->
            Printf.eprintf "perfbench: unknown workload %s\n" v;
            usage ());
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--scale" :: "tiny" :: rest ->
        scale := tiny;
        parse rest
    | "--tamper" :: (("bank-total" | "fingerprint") as v) :: rest ->
        tamper := Some v;
        parse rest
    | a :: _ ->
        Printf.eprintf "perfbench: bad argument %s\n" a;
        usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w = match !workload with Some w -> w | None -> usage () in
  let name = fst (List.find (fun (_, w') -> w' = w) workloads) in
  let scale = !scale and trace = !trace in
  let untraced_mode = { traced = false; cap = None; tamper = !tamper } in
  (* Instance seeds: disjoint for distinct --seed values. *)
  let seeds = List.init (scale.instances w) (fun i -> (!seed * 100) + i) in
  Printf.printf "perfbench %s seed %d (instances %s) trace %b\n%!" name !seed
    (String.concat "," (List.map string_of_int seeds))
    trace;
  (* Set-up cost: a median over repeated set-ups of the first instance. *)
  let ref0 = reference () in
  let setup_samples =
    List.init 31 (fun _ ->
        let t0 = clock () in
        ignore (Sys.opaque_identity (setup w scale ~seed:(List.hd seeds) untraced_mode));
        clock () -. t0)
  in
  let ref1 = reference () in
  let setup_s = calibrate ~ref0 ~ref1 (median setup_samples) in
  (* Untraced passes over all instances: within --seconds with
     --trace 0, half of it with --trace 1 (the traced instance and its
     replays take the rest). The first pass always runs; another
     starts only if one of the last one's length still ends within the
     budget. *)
  let budget = if trace then !seconds /. 2.0 else !seconds in
  let start = clock () in
  let run_pass () =
    let t0 = clock () in
    let pass = List.map (fun s -> snd (run_rep w scale ~seed:s untraced_mode)) seeds in
    (pass, clock () -. t0)
  in
  let first, first_s = run_pass () in
  (* The heap peak is read after the first pass: how many passes follow
     depends on the host's speed. *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let rec more acc last_s =
    if clock () -. start +. last_s > budget then List.rev acc
    else
      let pass, s = run_pass () in
      more (pass :: acc) s
  in
  let passes = more [ first ] first_s in
  let host_s = median (List.map (sumf (fun r -> r.host_s)) passes) in
  let same f = List.for_all (fun p -> List.for_all2 (fun a b -> f a = f b) p first) passes in
  let checks =
    ("virtual fingerprints identical in every pass", same (fun r -> r.out.fp))
    :: ("minor words identical in every pass", same (fun r -> r.minor_words))
    :: merge_checks (List.map (fun r -> r.out.checks) first)
  in
  List.iteri (fun k r -> pp_fp (Printf.sprintf "untraced/%d" k) r.out.fp) first;
  let checks, metrics =
    if not trace then (checks, end_to_end w ~pass:first ~host_s ~setup_s ~top_heap_words)
    else begin
      let cap = { times = [||]; evs = [||]; n = 0 } in
      let inst, traced =
        run_rep w scale ~seed:(List.hd seeds)
          { untraced_mode with traced = true; cap = Some cap }
      in
      let u0 = List.hd first in
      let tfp = traced.out.fp in
      let tfp =
        if !tamper = Some "fingerprint" then { tfp with commits = tfp.commits + 1 } else tfp
      in
      pp_fp "traced/0" tfp;
      let legs, leg_checks =
        match traced.out.verdict with
        | Some live -> check_legs cap ~live
        | None -> (List.map (fun (n, u) -> (n, u, 0.0)) check_metric_names, [])
      in
      ( (("traced fingerprint equals untraced", tfp = u0.out.fp) :: checks)
        @ List.map (fun (n, ok) -> ("traced: " ^ n, ok)) traced.out.checks
        @ leg_checks,
        layer_metrics inst ~traced ~untraced:u0 cap @ legs )
    end
  in
  let outs = List.map (fun r -> r.out) first in
  let n = Sketch.count (pooled_latency outs) in
  let beyond = n - int_of_float (Float.round (float_of_int n *. tail_pct w /. 100.0)) in
  Printf.printf "passes %d; pooled latency samples %d, tail p%g with %d beyond\n"
    (List.length passes) n (tail_pct w) beyond;
  List.iter
    (fun (what, ok) -> Printf.printf "check %-52s %s\n" what (if ok then "ok" else "FAILED"))
    checks;
  let correct = List.for_all snd checks in
  let n_passes = List.length passes in
  let attempted = n_passes * sum (fun o -> o.attempted) outs in
  let failed = if correct then n_passes * sum (fun o -> o.failed) outs else attempted in
  emit ~correct ~attempted ~failed metrics;
  if not correct then exit 1
