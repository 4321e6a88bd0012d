(** Deterministic discrete-event simulator built on OCaml 5 effects.

    A simulation owns a virtual clock (nanoseconds, [float]) and an
    event queue. Processes are ordinary OCaml functions that perform
    the {!delay} and {!suspend} effects to advance or block on virtual
    time; the scheduler is single-threaded and deterministic (events at
    equal times fire in schedule order).

    Typical use:
    {[
      let sim = Sim.create () in
      Sim.spawn sim (fun () -> Sim.delay 100.0; ...);
      Sim.run sim
    ]} *)

type t

(** Raised inside blocked processes that are terminated when the
    simulation is stopped with pending waiters. *)
exception Stopped

val create : unit -> t

(** Current virtual time in nanoseconds. *)
val now : t -> float

(** [spawn t ?name f] schedules process [f] to start at the current
    virtual time. May be called before [run] or from within a running
    process. An exception escaping [f] (other than {!Stopped}) aborts
    the simulation. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** [schedule t ~at f] runs callback [f] at virtual time [at] (clamped
    to the current time if in the past). [f] must not perform effects;
    use [spawn] for that. *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** [register_port t handler] registers a delivery handler and returns
    its port id. Ports are the allocation-free alternative to
    {!schedule} for high-frequency timed deliveries: the subscriber
    registers one handler up front, and each delivery is just two ints
    in a pooled event cell (see {!schedule_port}) instead of a fresh
    closure. Ports cannot be unregistered; they live as long as the
    simulation. *)
val register_port : t -> (int -> unit) -> int

(** [schedule_port t ~at ~port ~slot] arranges for the handler
    registered under [port] to be called with [slot] at virtual time
    [at] (clamped like {!schedule}). The handler must not perform
    effects. *)
val schedule_port : t -> at:float -> port:int -> slot:int -> unit

(** Advance the calling process's virtual time by [d] nanoseconds.
    Must be called from within a spawned process. Negative delays are
    treated as zero. *)
val delay : float -> unit

(** [suspend register] blocks the calling process until the resume
    function passed to [register] is invoked with a value. The resume
    function must be called at most once; the wake-up is scheduled at
    the virtual time of the call. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** [run t ?until ()] executes events until the queue is empty or the
    clock passes [until]. Returns the number of events processed.
    Processes still blocked in {!suspend} when the run ends are
    abandoned (their continuations are dropped). *)
val run : t -> ?until:float -> unit -> int

(** Number of processes spawned so far. *)
val spawned : t -> int

(** Number of processes that ran to completion. *)
val finished : t -> int

(** Number of delays elided by the scheduler fast path: a {!delay}
    whose wake-up could not interleave with any queued event advances
    the clock in place instead of round-tripping through the event set.
    [run]'s return value plus this count — the *logical* event count —
    is invariant under that optimization and is the figure benchmarks
    should report. *)
val elided : t -> int

(** [every t ~period f] calls [f] every [period] nanoseconds of
    virtual time, first at [now t +. period]. A tick consumes no virtual
    time and never keeps a run alive: it reschedules while [f] returns
    [true] and some queued event is not itself such a tick, so several
    recurring samplers stop together once the real work drains. [f]
    must not perform effects; an exception escaping it aborts
    {!run}. *)
val every : t -> period:float -> (unit -> bool) -> unit

(** Host-side self-profiler. The engine never reads wall time itself
    (virtual determinism is the contract the source lint enforces):
    the harness *injects* a monotonic clock in seconds (the Unix
    wall clock, from bin/), and {!run} switches to an
    instrumented loop that attributes host time to scheduler
    categories — ["wheel"] (event-set pop), ["delay_resume"]
    (continuing a parked fiber, including the fiber's own execution up
    to its next suspension), ["mailbox_delivery"] (port dispatch),
    ["callback"], plus the subsystem refinements ["dtm"] and
    ["network"] claimed through {!prof_mark}. Costs two clock reads
    per event; [None] restores the uninstrumented loop (accumulated
    figures are kept). Virtual results are identical either way. *)
val set_host_clock : t -> (unit -> float) option -> unit

(** [prof_mark t cat] attributes the currently executing dispatch to
    refinement category [cat] ({!prof_cat_dtm} or {!prof_cat_network})
    instead of its scheduling category. First mark per dispatch wins
    (a send issued from inside DTM handling stays "dtm"); no-op
    without an injected clock. Attribution is at whole-dispatch
    granularity, so the categories partition the measured host time
    exactly. *)
val prof_mark : t -> int -> unit

val prof_cat_dtm : int

val prof_cat_network : int

(** (category, host seconds, samples) per category, in a fixed order;
    all zero until a clock has been injected and {!run} has run. *)
val host_profile : t -> (string * float * int) array
