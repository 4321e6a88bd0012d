(** The fuzz matrix: the six [@check] workload shapes at
    fuzz-friendly durations, the fault plans they are swept under, and
    one seeded run of a shape. Shared by the fault-injection fuzzer
    and the checker differential tests. *)

(** Client request timeout of a hardened run, in ns. *)
val timeout_ns : float

(** Lock lease of a hardened run, in ns. *)
val lease_ns : float

type shape = {
  sh_name : string;
  sh_cores : int;
  sh_duration_ms : float;
  sh_policy : Tm2c_core.Cm.policy;
  sh_wmode : Tm2c_core.Tx.wmode;
  sh_flags : string;  (** extra tm2c-sim flags for the repro command *)
  sh_body :
    Tm2c_core.Runtime.t -> duration_ns:float -> Tm2c_apps.Workload.result;
}

(** counter/16, bank/48, hashtable/16 (lazy and eager), list/16
    (normal and elastic-early). *)
val shapes : shape list

(** The fault plans under test; [~smoke:true] is the reduced CI set.
    Stall core 0 is always a DTM core, crash core 3 always an
    application core. *)
val plan_matrix : smoke:bool -> Tm2c_noc.Fault.plan list

(** A fresh runtime for [sh] under [seed]: SCC, dedicated deployment,
    half the cores serving the DTM. *)
val make_runtime : shape -> seed:int -> Tm2c_core.Runtime.t

(** One run of [sh]: installs [plan] (if any), hardening (timeouts and
    leases) when [hardened], and [replicas] DS-server backups. Returns
    the workload result and, when [collect], the complete event
    history for checker replay (else [[]]). *)
val run_shape :
  ?replicas:int ->
  shape ->
  seed:int ->
  plan:Tm2c_noc.Fault.plan option ->
  hardened:bool ->
  collect:bool ->
  Tm2c_apps.Workload.result * (float * Tm2c_core.Event.t) list
