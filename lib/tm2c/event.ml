(* Typed trace events spanning the whole stack. Recorded into the
   environment's ring buffer ([System.env.trace]) only when tracing is
   enabled; every emit site guards with [Trace.enabled] so the
   constructors below are never allocated on untraced runs. *)

open Types

type t =
  | Tx_start of { core : core_id; attempt : int; elastic : bool }
      (** [elastic] marks attempts running under an elastic mode: their
          read traces are partial (validated reads are plain memory
          accesses) and their windows may release read locks early, so
          the checkers apply only the write-side rules to them *)
  | Tx_read of { core : core_id; addr : addr; granted : bool; value : int }
      (** read-lock round trip completed (elastic validated reads do
          not appear: they are plain memory accesses). When granted,
          the event is stamped at the instant the memory sample
          returned and [value] is the word read — the serializability
          oracle replays versioned memory against exactly these
          (time, value) pairs. [value] is 0 on a refused lock. *)
  | Tx_write of { core : core_id; addr : addr; value : int }
      (** write buffered; emitted on every store, so the last event
          per address within an attempt carries the value the commit
          will publish *)
  | Tx_commit_begin of { core : core_id; attempt : int; n_writes : int }
  | Host_write of { addr : addr; value : int }
      (** a host-side store outside any transaction: benchmark setup
          (populate) or private-node initialization under weak
          atomicity (the node becomes reachable only when a commit
          publishes a pointer to it). The serializability oracle
          installs these as external versions — without them, node
          reuse after [Alloc.free] would make transactional reads of
          re-initialized words look like value corruption. *)
  | Rlock_released of { core : core_id; addr : addr }
      (** elastic-early dropped the oldest window entry: its read lock
          is released before the attempt ends (normal attempts release
          only at commit/abort, which the checkers infer from the
          attempt-end events) *)
  | Wlock_granted of { core : core_id; addrs : addr list }
      (** a write-lock batch was granted to this core (eager stores
          acquire one address at a time; lazy commits acquire per
          owner node) — the lockset checker's growing-phase witness *)
  | Tx_publish of { core : core_id; attempt : int; n_writes : int }
      (** the attempt passed its status CAS and is about to apply its
          write set: stamped at the exact instant the new values
          become visible to other cores ([Shmem.write_burst] applies
          data immediately and charges latency afterwards) *)
  | Tx_committed of { core : core_id; attempt : int; duration_ns : float }
  | Tx_aborted of { core : core_id; attempt : int; conflict : conflict option }
      (** [conflict = None] is the status-CAS abort path: a remote
          contention manager aborted this attempt by CAS-ing its
          status word ([Enemy_aborted] on the server side), and the
          victim discovered it in [Tx.check_status] or at its own
          commit CAS. Rendered as ["STATUS"] everywhere a conflict
          label is surfaced (trace dumps, JSON, Perfetto). *)
  | Lock_conflict of {
      server : core_id;
      requester : core_id;
      enemy : core_id;
      addr : addr;
      conflict : conflict;
      requester_wins : bool;
    }  (** a contention-manager decision at a DTM core *)
  | Enemy_aborted of {
      server : core_id;
      winner : core_id;
      victim : core_id;
      addr : addr;
      conflict : conflict;
    }  (** the winner's abort CAS landed on the victim's status word *)
  | Req_sent of {
      core : core_id;
      server : core_id;
      req_id : int;
      kind : string;
      n_addrs : int;
    }  (** an application core put a service request on the wire *)
  | Service of {
      server : core_id;
      requester : core_id;
      req_id : int;
      kind : string;
      queue_depth : int;
      occupancy : int;
    }
      (** a DTM core picked up a request: its input-queue depth and
          lock-table occupancy at that instant *)
  | Service_done of { server : core_id; requester : core_id; req_id : int }
      (** the DTM core finished processing (response, if any, sent) *)
  | Barrier of { core : core_id }
  | Msg_dropped of { src : core_id; dst : core_id }
      (** fault injection lost a message on the [src]->[dst] link *)
  | Msg_duplicated of { src : core_id; dst : core_id }
      (** fault injection delivered a message twice on [src]->[dst] *)
  | Req_resent of { core : core_id; server : core_id; req_id : int; nth : int }
      (** the requester's timeout fired and it resent request [req_id]
          (same sequence number, so the server can absorb duplicates);
          [nth] counts resends of this request, starting at 1 *)
  | Core_crashed of { core : core_id; attempt : int }
      (** crash-stop: the core dies at an operation boundary, releasing
          nothing — its open attempt ([attempt], or -1 outside any
          transaction) stays Unfinished and its locks are orphaned
          until lease reclamation revokes them *)
  | Lease_reclaimed of {
      server : core_id;
      victim : core_id;
      addr : addr;
      aborted : bool;
    }
      (** the server revoked [victim]'s lock on [addr] because its
          lease expired (the holder crashed or its release was lost);
          guarded by the status-word CAS, so a committing victim is
          never reclaimed. [aborted] is true when the CAS landed (a
          live pending victim was killed, like [Enemy_aborted]) and
          false when the entry was already stale *)
  | Server_crashed of { server : core_id }
      (** DS-lock server crash-stop ([scrash=] fault): the server stops
          serving at this instant; requests already in its mailbox and
          any sent later are never answered *)
  | Epoch_bumped of { part : int; epoch : int; by : core_id }
      (** a client gave up on partition [part]'s current owner after
          repeated resend timeouts: the partition epoch advances to
          [epoch] and routing flips to the designated backup *)
  | Replica_applied of { server : core_id; src : core_id; part : int; n_addrs : int }
      (** the backup [server] applied one replicated lock-table
          mutation for partition [part] shipped by primary [src] *)
  | Failover_done of { server : core_id; part : int; epoch : int; merged : int }
      (** the promoted backup reconstructed partition [part]'s
          authoritative lock table from its replica log ([merged]
          addresses) on the first post-failover request it served *)
  | Stale_epoch_rejected of {
      server : core_id;
      core : core_id;
      req_epoch : int;
      cur_epoch : int;
    }
      (** a request stamped with [req_epoch] reached a server whose
          view of the partition is at [cur_epoch] (or which no longer
          owns the partition): refused without touching the lock
          table, so a zombie primary can never grant a conflicting
          lock *)
  | Req_admitted of { core : core_id; tenant : int; queue_depth : int }
      (** an open-loop arrival passed admission control onto [core]'s
          bounded queue; [queue_depth] is the depth after enqueue *)
  | Req_shed of {
      core : core_id;
      tenant : int;
      reason : shed_reason;
      retry_after_ns : float;
    }
      (** admission control refused the arrival ([retry_after_ns] is
          the backoff hint returned to the client) *)
  | Req_expired of { core : core_id; tenant : int; waited_ns : float }
      (** a queued request exceeded the queue deadline and was dropped
          at dequeue, before any transaction ran for it *)
  | Retry_budget_exhausted of { core : core_id; tenant : int; retries : int }
      (** the client's bounded retry budget ran out: the request fails
          permanently instead of feeding a retry storm *)

(* [None] is the status-CAS abort path (see [Tx_aborted] above): the
   label must match the JSON export's by_conflict key and the stats
   field [aborts_status]. *)
let conflict_opt_to_string = function
  | Some c -> conflict_to_string c
  | None -> "STATUS"

(* ---- codec ----

   One table drives every rendering of an event: the history log
   (Histlog), the trace dump ([pp]), the Perfetto instants and the
   flight recorder's per-kind counters. Each constructor has one row
   in [table] (history-log tag, snake_case name, field names and kinds
   in log order) and one arm in each of [index], [values] and
   [decode]. The compiler checks that the two matches are exhaustive;
   the round-trip property checks that all three agree with the row. *)

type value =
  | Int of int
  | Bool of bool
  | Float of float
  | Str of string
  | Ints of int list
  | Conflict of conflict option
  | Shed of shed_reason

type kind = K_int | K_bool | K_float | K_str | K_ints | K_conflict | K_shed

let table =
  [|
    ("TXS", "tx_start", [ ("core", K_int); ("attempt", K_int); ("elastic", K_bool) ]);
    ( "TXR", "tx_read",
      [ ("core", K_int); ("addr", K_int); ("granted", K_bool); ("value", K_int) ] );
    ("TXW", "tx_write", [ ("core", K_int); ("addr", K_int); ("value", K_int) ]);
    ( "CB", "tx_commit_begin",
      [ ("core", K_int); ("attempt", K_int); ("n_writes", K_int) ] );
    ("HW", "host_write", [ ("addr", K_int); ("value", K_int) ]);
    ("RLR", "rlock_released", [ ("core", K_int); ("addr", K_int) ]);
    ("WLK", "wlock_granted", [ ("core", K_int); ("addrs", K_ints) ]);
    ("PUB", "tx_publish", [ ("core", K_int); ("attempt", K_int); ("n_writes", K_int) ]);
    ( "COM", "tx_committed",
      [ ("core", K_int); ("attempt", K_int); ("duration_ns", K_float) ] );
    ( "ABO", "tx_aborted",
      [ ("core", K_int); ("attempt", K_int); ("conflict", K_conflict) ] );
    ( "CFL", "lock_conflict",
      [ ("server", K_int); ("requester", K_int); ("enemy", K_int); ("addr", K_int);
        ("conflict", K_conflict); ("requester_wins", K_bool) ] );
    ( "ENA", "enemy_aborted",
      [ ("server", K_int); ("winner", K_int); ("victim", K_int); ("addr", K_int);
        ("conflict", K_conflict) ] );
    ( "REQ", "req_sent",
      [ ("core", K_int); ("server", K_int); ("req_id", K_int); ("kind", K_str);
        ("n_addrs", K_int) ] );
    ( "SRV", "service",
      [ ("server", K_int); ("requester", K_int); ("req_id", K_int); ("kind", K_str);
        ("queue_depth", K_int); ("occupancy", K_int) ] );
    ( "SRD", "service_done",
      [ ("server", K_int); ("requester", K_int); ("req_id", K_int) ] );
    ("BAR", "barrier", [ ("core", K_int) ]);
    ("DRP", "msg_dropped", [ ("src", K_int); ("dst", K_int) ]);
    ("DUP", "msg_duplicated", [ ("src", K_int); ("dst", K_int) ]);
    ( "RSN", "req_resent",
      [ ("core", K_int); ("server", K_int); ("req_id", K_int); ("nth", K_int) ] );
    ("CRS", "core_crashed", [ ("core", K_int); ("attempt", K_int) ]);
    ( "LSR", "lease_reclaimed",
      [ ("server", K_int); ("victim", K_int); ("addr", K_int); ("aborted", K_bool) ] );
    ("SCR", "server_crashed", [ ("server", K_int) ]);
    ("EPB", "epoch_bumped", [ ("part", K_int); ("epoch", K_int); ("by", K_int) ]);
    ( "RPA", "replica_applied",
      [ ("server", K_int); ("src", K_int); ("part", K_int); ("n_addrs", K_int) ] );
    ( "FOD", "failover_done",
      [ ("server", K_int); ("part", K_int); ("epoch", K_int); ("merged", K_int) ] );
    ( "SER", "stale_epoch_rejected",
      [ ("server", K_int); ("core", K_int); ("req_epoch", K_int); ("cur_epoch", K_int) ]
    );
    ( "ADM", "req_admitted",
      [ ("core", K_int); ("tenant", K_int); ("queue_depth", K_int) ] );
    ( "SHD", "req_shed",
      [ ("core", K_int); ("tenant", K_int); ("reason", K_shed);
        ("retry_after_ns", K_float) ] );
    ( "EXP", "req_expired",
      [ ("core", K_int); ("tenant", K_int); ("waited_ns", K_float) ] );
    ( "RBX", "retry_budget_exhausted",
      [ ("core", K_int); ("tenant", K_int); ("retries", K_int) ] );
  |]

(* Row of [table]; a constant per arm, so counting events allocates
   nothing. *)
let index = function
  | Tx_start _ -> 0
  | Tx_read _ -> 1
  | Tx_write _ -> 2
  | Tx_commit_begin _ -> 3
  | Host_write _ -> 4
  | Rlock_released _ -> 5
  | Wlock_granted _ -> 6
  | Tx_publish _ -> 7
  | Tx_committed _ -> 8
  | Tx_aborted _ -> 9
  | Lock_conflict _ -> 10
  | Enemy_aborted _ -> 11
  | Req_sent _ -> 12
  | Service _ -> 13
  | Service_done _ -> 14
  | Barrier _ -> 15
  | Msg_dropped _ -> 16
  | Msg_duplicated _ -> 17
  | Req_resent _ -> 18
  | Core_crashed _ -> 19
  | Lease_reclaimed _ -> 20
  | Server_crashed _ -> 21
  | Epoch_bumped _ -> 22
  | Replica_applied _ -> 23
  | Failover_done _ -> 24
  | Stale_epoch_rejected _ -> 25
  | Req_admitted _ -> 26
  | Req_shed _ -> 27
  | Req_expired _ -> 28
  | Retry_budget_exhausted _ -> 29

let names = Array.map (fun (_, name, _) -> name) table

let tag ev =
  let tag, _, _ = table.(index ev) in
  tag

let schema tag =
  Array.find_map (fun (t, _, schema) -> if t = tag then Some schema else None) table

(* Field values in log order. *)
let values = function
  | Tx_start { core; attempt; elastic } -> [ Int core; Int attempt; Bool elastic ]
  | Tx_read { core; addr; granted; value } ->
      [ Int core; Int addr; Bool granted; Int value ]
  | Tx_write { core; addr; value } -> [ Int core; Int addr; Int value ]
  | Tx_commit_begin { core; attempt; n_writes } -> [ Int core; Int attempt; Int n_writes ]
  | Host_write { addr; value } -> [ Int addr; Int value ]
  | Rlock_released { core; addr } -> [ Int core; Int addr ]
  | Wlock_granted { core; addrs } -> [ Int core; Ints addrs ]
  | Tx_publish { core; attempt; n_writes } -> [ Int core; Int attempt; Int n_writes ]
  | Tx_committed { core; attempt; duration_ns } ->
      [ Int core; Int attempt; Float duration_ns ]
  | Tx_aborted { core; attempt; conflict } -> [ Int core; Int attempt; Conflict conflict ]
  | Lock_conflict { server; requester; enemy; addr; conflict; requester_wins } ->
      [ Int server; Int requester; Int enemy; Int addr; Conflict (Some conflict);
        Bool requester_wins ]
  | Enemy_aborted { server; winner; victim; addr; conflict } ->
      [ Int server; Int winner; Int victim; Int addr; Conflict (Some conflict) ]
  | Req_sent { core; server; req_id; kind; n_addrs } ->
      [ Int core; Int server; Int req_id; Str kind; Int n_addrs ]
  | Service { server; requester; req_id; kind; queue_depth; occupancy } ->
      [ Int server; Int requester; Int req_id; Str kind; Int queue_depth; Int occupancy ]
  | Service_done { server; requester; req_id } ->
      [ Int server; Int requester; Int req_id ]
  | Barrier { core } -> [ Int core ]
  | Msg_dropped { src; dst } -> [ Int src; Int dst ]
  | Msg_duplicated { src; dst } -> [ Int src; Int dst ]
  | Req_resent { core; server; req_id; nth } ->
      [ Int core; Int server; Int req_id; Int nth ]
  | Core_crashed { core; attempt } -> [ Int core; Int attempt ]
  | Lease_reclaimed { server; victim; addr; aborted } ->
      [ Int server; Int victim; Int addr; Bool aborted ]
  | Server_crashed { server } -> [ Int server ]
  | Epoch_bumped { part; epoch; by } -> [ Int part; Int epoch; Int by ]
  | Replica_applied { server; src; part; n_addrs } ->
      [ Int server; Int src; Int part; Int n_addrs ]
  | Failover_done { server; part; epoch; merged } ->
      [ Int server; Int part; Int epoch; Int merged ]
  | Stale_epoch_rejected { server; core; req_epoch; cur_epoch } ->
      [ Int server; Int core; Int req_epoch; Int cur_epoch ]
  | Req_admitted { core; tenant; queue_depth } ->
      [ Int core; Int tenant; Int queue_depth ]
  | Req_shed { core; tenant; reason; retry_after_ns } ->
      [ Int core; Int tenant; Shed reason; Float retry_after_ns ]
  | Req_expired { core; tenant; waited_ns } -> [ Int core; Int tenant; Float waited_ns ]
  | Retry_budget_exhausted { core; tenant; retries } ->
      [ Int core; Int tenant; Int retries ]

let fields ev =
  let _, _, schema = table.(index ev) in
  List.map2 (fun (name, _) v -> (name, v)) schema (values ev)

let decode tag values =
  match (tag, values) with
  | "TXS", [ Int core; Int attempt; Bool elastic ] ->
      Some (Tx_start { core; attempt; elastic })
  | "TXR", [ Int core; Int addr; Bool granted; Int value ] ->
      Some (Tx_read { core; addr; granted; value })
  | "TXW", [ Int core; Int addr; Int value ] -> Some (Tx_write { core; addr; value })
  | "CB", [ Int core; Int attempt; Int n_writes ] ->
      Some (Tx_commit_begin { core; attempt; n_writes })
  | "HW", [ Int addr; Int value ] -> Some (Host_write { addr; value })
  | "RLR", [ Int core; Int addr ] -> Some (Rlock_released { core; addr })
  | "WLK", [ Int core; Ints addrs ] -> Some (Wlock_granted { core; addrs })
  | "PUB", [ Int core; Int attempt; Int n_writes ] ->
      Some (Tx_publish { core; attempt; n_writes })
  | "COM", [ Int core; Int attempt; Float duration_ns ] ->
      Some (Tx_committed { core; attempt; duration_ns })
  | "ABO", [ Int core; Int attempt; Conflict conflict ] ->
      Some (Tx_aborted { core; attempt; conflict })
  | ( "CFL",
      [ Int server; Int requester; Int enemy; Int addr; Conflict (Some conflict);
        Bool requester_wins ] ) ->
      Some (Lock_conflict { server; requester; enemy; addr; conflict; requester_wins })
  | "ENA", [ Int server; Int winner; Int victim; Int addr; Conflict (Some conflict) ] ->
      Some (Enemy_aborted { server; winner; victim; addr; conflict })
  | "REQ", [ Int core; Int server; Int req_id; Str kind; Int n_addrs ] ->
      Some (Req_sent { core; server; req_id; kind; n_addrs })
  | ( "SRV",
      [ Int server; Int requester; Int req_id; Str kind; Int queue_depth;
        Int occupancy ] ) ->
      Some (Service { server; requester; req_id; kind; queue_depth; occupancy })
  | "SRD", [ Int server; Int requester; Int req_id ] ->
      Some (Service_done { server; requester; req_id })
  | "BAR", [ Int core ] -> Some (Barrier { core })
  | "DRP", [ Int src; Int dst ] -> Some (Msg_dropped { src; dst })
  | "DUP", [ Int src; Int dst ] -> Some (Msg_duplicated { src; dst })
  | "RSN", [ Int core; Int server; Int req_id; Int nth ] ->
      Some (Req_resent { core; server; req_id; nth })
  | "CRS", [ Int core; Int attempt ] -> Some (Core_crashed { core; attempt })
  | "LSR", [ Int server; Int victim; Int addr; Bool aborted ] ->
      Some (Lease_reclaimed { server; victim; addr; aborted })
  | "SCR", [ Int server ] -> Some (Server_crashed { server })
  | "EPB", [ Int part; Int epoch; Int by ] -> Some (Epoch_bumped { part; epoch; by })
  | "RPA", [ Int server; Int src; Int part; Int n_addrs ] ->
      Some (Replica_applied { server; src; part; n_addrs })
  | "FOD", [ Int server; Int part; Int epoch; Int merged ] ->
      Some (Failover_done { server; part; epoch; merged })
  | "SER", [ Int server; Int core; Int req_epoch; Int cur_epoch ] ->
      Some (Stale_epoch_rejected { server; core; req_epoch; cur_epoch })
  | "ADM", [ Int core; Int tenant; Int queue_depth ] ->
      Some (Req_admitted { core; tenant; queue_depth })
  | "SHD", [ Int core; Int tenant; Shed reason; Float retry_after_ns ] ->
      Some (Req_shed { core; tenant; reason; retry_after_ns })
  | "EXP", [ Int core; Int tenant; Float waited_ns ] ->
      Some (Req_expired { core; tenant; waited_ns })
  | "RBX", [ Int core; Int tenant; Int retries ] ->
      Some (Retry_budget_exhausted { core; tenant; retries })
  | _ -> None

let pp_value fmt = function
  | Int i -> Format.pp_print_int fmt i
  | Bool b -> Format.pp_print_bool fmt b
  | Float f -> Format.fprintf fmt "%.0f" f
  | Str s -> Format.pp_print_string fmt s
  | Ints l -> Format.pp_print_string fmt (String.concat "," (List.map string_of_int l))
  | Conflict c -> Format.pp_print_string fmt (conflict_opt_to_string c)
  | Shed r -> Format.pp_print_string fmt (shed_reason_to_string r)

let pp fmt ev =
  Format.fprintf fmt "%-22s" names.(index ev);
  List.iter (fun (name, v) -> Format.fprintf fmt " %s=%a" name pp_value v) (fields ev)

let to_string ev = Format.asprintf "%a" pp ev
