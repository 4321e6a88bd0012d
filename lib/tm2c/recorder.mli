(** Streaming flight recorder: bounded-memory metrics snapshots on a
    simulated-time cadence.

    Every [window_ns] of virtual time the recorder assembles one
    snapshot block — windowed deltas of the always-on counters,
    windowed and cumulative latency quantiles ({!Tm2c_engine.Sketch}),
    per-phase latency merged across cores, per-DS-partition service
    gauges, the top-K busiest NoC links and top-K abort-blame pairs —
    emits it through [out] in an OpenMetrics-style text format, and
    rolls every baseline. Nothing is retained per window, so resident
    memory is constant in run length — unless [~series:true] asks for
    the JSON time series, one row of six values per window.

    Producers keep writing their one cumulative counter or sketch; the
    recorder reads deltas against private baselines. Wire it up with
    [Runtime.enable_recorder], which also routes trace events into
    {!record_event} through the trace's second tap. *)

type t

(** [create ~env ~window_ns ?out ?top_k ?series ~servers ()] — [out]
    receives one complete text block per window (omit it to keep only
    the in-memory aggregates for the JSON export); [servers] supplies
    the live DTM servers at each tick; [top_k] (default 8) bounds the
    per-window link and abort-blame listings; [series] (default
    [false]) keeps the per-window rows behind {!series}. *)
val create :
  env:System.env ->
  window_ns:float ->
  ?out:(string -> unit) ->
  ?top_k:int ->
  ?series:bool ->
  servers:(unit -> Dtm.server list) ->
  unit ->
  t

(** Install the reader for the checker sink's high-water mark
    (defaults to a constant 0 when no collector is attached). *)
val set_sink_high_water : t -> (unit -> int) -> unit

(** Count one trace event (the [Trace.set_tap] target). Counts stay 0
    while tracing is disabled: the recorder never forces tracing on. *)
val record_event : t -> Event.t -> unit

(** Baseline all counters and start the recurring snapshot tick
    ({!Tm2c_engine.Sim.every}: it never keeps a finished run alive).
    Call before [Runtime.run]. *)
val start : t -> unit

(** Emit the final partial window and a ["# eof"] marker, then stop.
    Idempotent; a no-op if {!start} was never called. *)
val finish : t -> unit

val window_ns : t -> float

(** Windows emitted so far (including the final partial one). *)
val n_windows : t -> int

(** [(name, total since start, sum of emitted windowed deltas)] per
    counter. After {!finish} the total stops at the final window and
    the two figures are equal — the telescoping invariant
    validate_json re-checks. *)
val counter_totals : t -> (string * float * float) list

(** A series channel either carries per-window deltas of a counter or
    a gauge read at the window's end. *)
type kind = Cumulative | Gauge

(** The time series kept with [~series:true]: window-end times (a
    final window that closes on the last tick's instant is merged into
    it, so times strictly increase) and, per channel, one value per
    window. The channels are ["ops"], ["commits"], ["aborts"] and
    ["messages"] (the deltas of the counters named ops, commits,
    aborts and messages_sent, so each sums to that counter's
    windowed total), ["queue_depth_mean"] (mean input-queue depth over
    the DTM servers) and ["link_msgs_max"] (the busiest link's message
    count in the window; a merged final window keeps the larger of its
    two parts). [None] without [~series:true]. *)
val series : t -> (float array * (string * kind * float array) list) option

(** The cumulative latency sketches tracked by the recorder. *)
val sketch_totals : t -> (string * Tm2c_engine.Sketch.t) list

(** Cumulative per-phase commit-latency sketches, merged across cores
    (empty sketches while profiling is disabled). *)
val phase_sketches : t -> (string * Tm2c_engine.Sketch.t) list

(** Cumulative trace-event counts per constructor label. *)
val event_totals : t -> (string * int) list
