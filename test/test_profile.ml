(* The analysis layer: phase attribution (Span), the time series the
   flight recorder keeps for the JSON export, and the Perfetto timeline
   exporter. *)

open Tm2c_engine
open Tm2c_core
open Tm2c_harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- phase attribution ---- *)

(* A contended bank run with profiling on: per app core, the committed
   phase sums must equal the summed committed-attempt durations (the
   instrumentation charges every telescoping segment of an attempt to
   exactly one phase), and the flushed attempt count must equal the
   core's commit counter. *)
let test_span_invariant () =
  let open Tm2c_apps in
  (* Back-off-Retry: the only policy that waits between attempts, so
     the backoff phase is exercised too. *)
  let cfg = Exp.config ~total:8 ~policy:Cm.Backoff_retry () in
  let t = Runtime.create cfg in
  Runtime.enable_profiling t;
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  let r = Workload.drive t ~duration_ns:1.5e6 (Exp.bank_mix bank ~balance:20) in
  check "run commits" true (r.Workload.commits > 0);
  check "run aborts (contended)" true (r.Workload.aborts > 0);
  let span = Runtime.span_commit t in
  let active = ref 0 in
  for core = 0 to Span.n_cores span - 1 do
    let attempts = Span.attempts span ~core in
    check_int "attempts = per-core commits" (Stats.core (Runtime.stats t) core).Stats.commits
      attempts;
    if attempts > 0 then begin
      incr active;
      let total = Span.attempt_ns span ~core in
      let phases = Span.phase_total span ~core in
      if Float.abs (phases -. total) > 1e-6 *. Float.max total 1.0 then
        Alcotest.failf "core %d: phase sums %.6f ns <> attempt total %.6f ns" core
          phases total;
      (* The sketches see the same samples as the sums (zero-duration
         phases excluded), so their sums reconcile too. *)
      let hist_sum = ref 0.0 in
      for phase = 0 to Span.n_phases span - 1 do
        hist_sum := !hist_sum +. Sketch.sum (Span.sketch span ~core ~phase)
      done;
      check "sketch sums match phase sums" true
        (Float.abs (!hist_sum -. phases) <= 1e-6 *. Float.max phases 1.0)
    end
  done;
  check "several cores committed" true (!active > 1);
  (* Aborted attempts aggregate separately; the contended run produced
     some, and their backoff phase is charged there (and only there). *)
  let ab = Runtime.span_abort t in
  let ab_attempts = ref 0 and backoff = ref 0.0 and commit_backoff = ref 0.0 in
  for core = 0 to Span.n_cores ab - 1 do
    ab_attempts := !ab_attempts + Span.attempts ab ~core;
    backoff := !backoff +. Span.sum ab ~core ~phase:Phase.backoff;
    commit_backoff := !commit_backoff +. Span.sum span ~core ~phase:Phase.backoff
  done;
  check "aborted attempts recorded" true (!ab_attempts > 0);
  check "backoff charged on the abort side" true (!backoff > 0.0);
  check "no backoff inside committed attempts" true (!commit_backoff = 0.0)

(* Profiling is off by default: the same workload accumulates nothing. *)
let test_span_disabled () =
  let open Tm2c_apps in
  let cfg = Exp.config ~total:8 () in
  let t = Runtime.create cfg in
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  let r = Workload.drive t ~duration_ns:1.0e6 (Exp.bank_mix bank ~balance:20) in
  check "run commits" true (r.Workload.commits > 0);
  let span = Runtime.span_commit t in
  let total = ref 0 in
  for core = 0 to Span.n_cores span - 1 do
    total := !total + Span.attempts span ~core
  done;
  check_int "nothing accumulated when disabled" 0 !total

(* ---- time series ---- *)

(* The JSON time series comes from the recorder's windows. Each
   cumulative channel's per-window deltas partition the counter's
   growth, so they sum to the recorder's total for that counter (an
   event on a window edge lands in exactly one window), and window-end
   times strictly increase even though the final partial window of a
   horizon run closes on the last tick's instant. *)
let test_series_sums () =
  let open Tm2c_apps in
  let cfg = Exp.config ~total:8 ~policy:Cm.Fair_cm () in
  let t = Runtime.create cfg in
  Runtime.enable_recorder t ~window_ns:1e5 ~series:true ();
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  let r = Workload.drive t ~duration_ns:1.5e6 (Exp.bank_mix bank ~balance:20) in
  let rec_ = Option.get (Runtime.recorder t) in
  let times, channels = Option.get (Recorder.series rec_) in
  let n = Array.length times in
  check "one window per tick" true (n >= 15);
  Array.iteri
    (fun i at ->
      if i > 0 && not (at > times.(i - 1)) then
        Alcotest.failf "window %d ends at %g, not after %g" i at times.(i - 1))
    times;
  check "last window ends at the horizon" true (times.(n - 1) = 1.5e6);
  let total name =
    match
      List.find_opt (fun (c, _, _) -> c = name) (Recorder.counter_totals rec_)
    with
    | Some (_, v, _) -> v
    | None -> Alcotest.failf "counter %s missing" name
  in
  List.iter
    (fun (name, kind, values) ->
      check_int (name ^ ": one value per window") n (Array.length values);
      match kind with
      | Recorder.Cumulative ->
          let counter = if name = "messages" then "messages_sent" else name in
          Alcotest.(check (float 0.0))
            (name ^ ": deltas sum to the counter total")
            (total counter)
            (Array.fold_left ( +. ) 0.0 values)
      | Recorder.Gauge ->
          check (name ^ ": gauge non-negative") true
            (Array.for_all (fun v -> v >= 0.0) values))
    channels;
  Alcotest.(check (list string))
    "channel names"
    [ "ops"; "commits"; "aborts"; "messages"; "queue_depth_mean"; "link_msgs_max" ]
    (List.map (fun (name, _, _) -> name) channels);
  check_int "commits channel = result" r.Workload.commits
    (int_of_float (total "commits"));
  check "traffic seen on some link" true
    (List.exists
       (fun (name, _, values) ->
         name = "link_msgs_max" && Array.exists (fun v -> v > 0.0) values)
       channels);
  (* Without [~series:true] the recorder keeps nothing per window. *)
  let t = Runtime.create cfg in
  Runtime.enable_recorder t ~window_ns:1e5 ();
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  ignore (Workload.drive t ~duration_ns:1.5e6 (Exp.bank_mix bank ~balance:20));
  check "no series kept by default" true
    (Recorder.series (Option.get (Runtime.recorder t)) = None)

(* ---- Perfetto export ---- *)

let traced_run () =
  let open Tm2c_apps in
  let cfg = Exp.config ~total:8 ~policy:Cm.Fair_cm () in
  let t = Runtime.create cfg in
  Runtime.enable_tracing t;
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  ignore (Workload.drive t ~duration_ns:1.0e6 (Exp.bank_mix bank ~balance:20));
  t

let test_perfetto_valid () =
  let t = traced_run () in
  let doc =
    Perfetto.export ~app:(Runtime.app_cores t) ~dtm:(Runtime.dtm_cores t)
      (Runtime.trace t)
  in
  (match Perfetto.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "export did not validate: %s" msg);
  (* Round-trip through the serializer too: the validator must accept
     what a consumer would re-parse from disk. *)
  (match Perfetto.validate (Json.of_string (Json.to_string ~indent:false doc)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "serialized export did not validate: %s" msg);
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
      let count ph =
        List.length
          (List.filter (fun e -> Json.member "ph" e = Some (Json.String ph)) evs)
      in
      check "has track metadata" true (count "M" > 2);
      check "has slices" true (count "X" > 0);
      check "has instants" true (count "i" > 0);
      check "flow starts present" true (count "s" > 0);
      check_int "flows pair up" (count "s") (count "f")
  | _ -> Alcotest.fail "traceEvents missing"

let test_perfetto_rejects () =
  let ev ts =
    Json.Obj
      [
        ("ph", Json.String "i");
        ("ts", Json.Float ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("name", Json.String "x");
        ("s", Json.String "t");
      ]
  in
  let doc evs = Json.Obj [ ("traceEvents", Json.List evs) ] in
  check "non-monotone track rejected" true
    (Result.is_error (Perfetto.validate (doc [ ev 5.0; ev 1.0 ])));
  check "monotone track accepted" true
    (Result.is_ok (Perfetto.validate (doc [ ev 1.0; ev 5.0 ])));
  let flow ph =
    Json.Obj
      [
        ("ph", Json.String ph);
        ("ts", Json.Float 1.0);
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("id", Json.Int 7);
      ]
  in
  check "unpaired flow start rejected" true
    (Result.is_error (Perfetto.validate (doc [ flow "s" ])));
  check "unpaired flow finish rejected" true
    (Result.is_error (Perfetto.validate (doc [ flow "f" ])));
  check "paired flow accepted" true
    (Result.is_ok (Perfetto.validate (doc [ flow "s"; flow "f" ])));
  check "missing traceEvents rejected" true
    (Result.is_error (Perfetto.validate (Json.Obj [])))

(* ---- exported run structure (v2 sections) ---- *)

let test_run_json_v2 () =
  let open Tm2c_apps in
  let cfg = Exp.config ~total:8 ~policy:Cm.Fair_cm () in
  let t = Runtime.create cfg in
  Runtime.enable_profiling t;
  Runtime.enable_recorder t ~window_ns:1e5 ~series:true ();
  let bank = Bank.create t ~accounts:32 ~initial:1000 in
  let r = Workload.drive t ~duration_ns:1.5e6 (Exp.bank_mix bank ~balance:20) in
  let v = Json.of_string (Json.to_string (Report.run_json t r)) in
  check "phases enabled" true
    (Json.path [ "phases"; "enabled" ] v = Some (Json.Bool true));
  (match Json.path [ "phases"; "committed" ] v with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "phases.committed empty");
  (match Json.path [ "timeseries"; "channels"; "commits"; "values" ] v with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "timeseries commits channel empty");
  check "trace section reports disabled ring" true
    (Json.path [ "trace"; "enabled" ] v = Some (Json.Bool false));
  check "trace dropped exported" true
    (Json.path [ "trace"; "dropped" ] v = Some (Json.Int 0))

let suite =
  [
    ("span: committed phase sums = attempt totals", `Quick, test_span_invariant);
    ("span: disabled by default", `Quick, test_span_disabled);
    ("series: window deltas sum to the counter totals", `Quick, test_series_sums);
    ("perfetto: traced run validates", `Quick, test_perfetto_valid);
    ("perfetto: validator rejects malformed docs", `Quick, test_perfetto_rejects);
    ("export: v2 run sections", `Quick, test_run_json_v2);
  ]
