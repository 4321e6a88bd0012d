(** Typed trace events spanning the whole stack.

    Recorded into the environment's ring buffer ([System.env.trace])
    only when tracing is enabled; every emit site guards with
    [Trace.enabled] so the constructors below are never allocated on
    untraced runs. The checkers in [Tm2c_check] reconstruct complete
    per-attempt histories from these events, so the documented
    timestamp semantics (sample instants, visibility instants) are
    load-bearing. *)

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
          any sent later are never answered — clients recover only
          through timeout-driven failover *)
  | Epoch_bumped of { part : int; epoch : int; by : core_id }
      (** client [by] gave up on partition [part]'s current owner after
          repeated resend timeouts: the partition epoch advances to
          [epoch] and routing flips to the designated backup *)
  | Replica_applied of { server : core_id; src : core_id; part : int; n_addrs : int }
      (** the backup [server] applied one replicated lock-table
          mutation ([n_addrs] addresses) for partition [part], shipped
          by primary [src] over the reliable replication channel *)
  | Failover_done of { server : core_id; part : int; epoch : int; merged : int }
      (** the promoted backup reconstructed partition [part]'s
          authoritative lock table from its replica log ([merged]
          addresses merged) on the first post-failover request it
          served; in-flight grants whose release was lost with the
          primary are cleared later by lease expiry *)
  | Stale_epoch_rejected of {
      server : core_id;
      core : core_id;
      req_epoch : int;
      cur_epoch : int;
    }
      (** a request stamped with [req_epoch] reached a server whose
          view of the partition is at [cur_epoch] (or which no longer
          owns the partition): refused without touching the lock
          table, so a zombie primary — stalled or partitioned through
          a failover, then healed — can never grant a conflicting
          lock *)
  | Req_admitted of { core : core_id; tenant : int; queue_depth : int }
      (** an open-loop arrival passed admission control onto [core]'s
          bounded queue (see {!Admission}); [queue_depth] is the depth
          after enqueue. Admission events carry no per-attempt
          information: the transaction, if any, starts only when the
          core's worker later dequeues the request. *)
  | Req_shed of {
      core : core_id;
      tenant : int;
      reason : shed_reason;
      retry_after_ns : float;
    }
      (** admission control refused the arrival; [retry_after_ns] is
          the backoff hint handed back to the client (0 when the
          policy has none) *)
  | Req_expired of { core : core_id; tenant : int; waited_ns : float }
      (** a queued request sat longer than the queue deadline and was
          dropped at dequeue — shed late, before any transaction ran *)
  | Retry_budget_exhausted of { core : core_id; tenant : int; retries : int }
      (** the client's bounded retry budget ran out after [retries]
          resubmissions: the request fails permanently instead of
          re-amplifying into a retry storm *)

(** Conflict label of an abort cause; [None] (the status-CAS abort
    path documented on {!Tx_aborted}) renders as ["STATUS"] — the same
    key the JSON export uses in [aborts.by_conflict]. *)
val conflict_opt_to_string : conflict option -> string

(** {1 Codec}

    One descriptor per constructor, from which every output format is
    derived: the history log ({!Tm2c_check.Histlog}), the trace dump
    ({!pp}), the Perfetto instants and the flight recorder's per-kind
    event counts. *)

(** A field value. [Conflict] carries the abort cause of
    {!Tx_aborted} ([None] is the status-CAS path) and, always as
    [Some], the conflict class of {!Lock_conflict}/{!Enemy_aborted}. *)
type value =
  | Int of int
  | Bool of bool
  | Float of float
  | Str of string
  | Ints of int list
  | Conflict of conflict option
  | Shed of shed_reason

(** The kind of a field, i.e. which [value] constructor carries it. *)
type kind = K_int | K_bool | K_float | K_str | K_ints | K_conflict | K_shed

(** Constructor index in declaration order, in
    [\[0, Array.length names)]. Allocation-free. *)
val index : t -> int

(** Snake-case name per constructor, indexed by {!index}
    (["tx_start"], ["tx_committed"], ...). *)
val names : string array

(** The constructor's history-log record tag (["TXS"], ["COM"], ...). *)
val tag : t -> string

(** Field names and kinds, in log order, of the constructor with the
    given history-log tag; [None] for an unknown tag. *)
val schema : string -> (string * kind) list option

(** Named field values, in log order. *)
val fields : t -> (string * value) list

(** [decode tag values] rebuilds the event from its tag and field
    values in log order ([List.map snd (fields ev)]); [None] when the
    tag is unknown or the values do not fit its schema. *)
val decode : string -> value list -> t option

(** Name and [k=v] fields, for trace dumps. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
