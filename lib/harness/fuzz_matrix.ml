(* The fuzz matrix: the six @check workload shapes (bench/dune) at
   fuzz-friendly durations, the fault plans they are swept under, and
   one seeded, optionally faulted and hardened run of a shape. Shared
   by the fault-injection fuzzer (bench/fuzz.ml) and the checker
   differential tests. *)

open Tm2c_core
open Tm2c_noc
open Tm2c_check

let timeout_ns = 60_000.0

let lease_ns = 250_000.0

type shape = {
  sh_name : string;
  sh_cores : int;
  sh_duration_ms : float;
  sh_policy : Cm.policy;
  sh_wmode : Tx.wmode;
  sh_flags : string;  (* extra tm2c-sim flags for the repro command *)
  sh_body : Runtime.t -> duration_ns:float -> Tm2c_apps.Workload.result;
}

(* The six @check shapes (bench/dune), at fuzz-friendly durations. *)
let shapes =
  let open Tm2c_apps in
  let counter t ~duration_ns =
    let c = Tm2c_memory.Alloc.alloc (Runtime.alloc t) ~words:1 in
    Workload.drive t ~duration_ns (fun _core ctx _prng () ->
        Tx.atomic ctx (fun () -> Tx.write ctx c (Tx.read ctx c + 1)))
  in
  let bank t ~duration_ns =
    let accounts = 1024 in
    let b = Bank.create t ~accounts ~initial:1000 in
    Workload.drive t ~duration_ns (fun _core ctx prng () ->
        if Tm2c_engine.Prng.int prng 100 < 20 then ignore (Bank.tx_balance ctx b)
        else
          let src = Tm2c_engine.Prng.int prng accounts
          and dst = Tm2c_engine.Prng.int prng accounts in
          Bank.tx_transfer ctx b ~src ~dst ~amount:1)
  in
  let hashtable t ~duration_ns =
    let size = 512 in
    let ht = Hashtable.create t ~n_buckets:64 in
    Hashtable.populate ht (Runtime.fork_prng t) ~n:size ~key_range:(2 * size);
    let r =
      Workload.drive t ~duration_ns (fun _core ctx prng () ->
          let k = Tm2c_engine.Prng.int prng (2 * size) in
          let p = Tm2c_engine.Prng.int prng 100 in
          if p < 20 then
            if p land 1 = 0 then ignore (Hashtable.tx_add ctx ht k)
            else ignore (Hashtable.tx_remove ctx ht k)
          else ignore (Hashtable.tx_contains ctx ht k))
    in
    Hashtable.check_invariants ht;
    r
  in
  let list_bench mode t ~duration_ns =
    let size = 64 in
    let l = Linkedlist.create t in
    Linkedlist.populate l (Runtime.fork_prng t) ~n:size ~key_range:(2 * size);
    let r =
      Workload.drive t ~duration_ns (fun _core ctx prng () ->
          let k = Tm2c_engine.Prng.int prng (2 * size) in
          let p = Tm2c_engine.Prng.int prng 100 in
          if p < 20 then
            if p land 1 = 0 then ignore (Linkedlist.tx_add ~mode ctx l k)
            else ignore (Linkedlist.tx_remove ~mode ctx l k)
          else ignore (Linkedlist.tx_contains ~mode ctx l k))
    in
    Linkedlist.check_invariants l;
    r
  in
  [
    {
      sh_name = "counter/16";
      sh_cores = 16;
      sh_duration_ms = 1.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench counter --cores 16";
      sh_body = counter;
    };
    {
      sh_name = "bank/48";
      sh_cores = 48;
      sh_duration_ms = 1.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench bank --cores 48";
      sh_body = bank;
    };
    {
      sh_name = "hashtable/16";
      sh_cores = 16;
      sh_duration_ms = 1.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench hashtable --cores 16";
      sh_body = hashtable;
    };
    {
      sh_name = "hashtable/16-eager";
      sh_cores = 16;
      sh_duration_ms = 1.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Eager;
      sh_flags = "--bench hashtable --cores 16 --eager";
      sh_body = hashtable;
    };
    {
      sh_name = "list/16";
      sh_cores = 16;
      sh_duration_ms = 2.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench list --cores 16 --size 64";
      sh_body = list_bench `Normal;
    };
    {
      sh_name = "list/16-elastic-early";
      sh_cores = 16;
      sh_duration_ms = 2.0;
      sh_policy = Cm.Fair_cm;
      sh_wmode = Tx.Lazy;
      sh_flags = "--bench list --cores 16 --size 64 --elastic early";
      sh_body = list_bench `Elastic_early;
    };
  ]

(* Fault plans under test. Stall core 0 is always a DTM core
   (dedicated deployment places servers on the even ids); crash core 3
   is always an application core. *)
let plan_matrix ~smoke =
  let specs =
    if smoke then
      [
        "drop=0.01,dup=0.02";
        "delay=0.05@2000,reorder=0.1@3000";
        "drop=0.005,dup=0.01,delay=0.02@1500,stall=0@3e5+2e5,crash=3@5e5,part=1-4@1e5+2e5";
      ]
    else
      [
        "drop=0.01";
        "dup=0.02";
        "delay=0.05@2000";
        "reorder=0.1@3000";
        "part=1-4@1e5+2e5";
        "drop=0.01,dup=0.02,delay=0.05@2000";
        "stall=0@3e5+2e5";
        "crash=3@5e5";
        "drop=0.005,dup=0.01,delay=0.02@1500,reorder=0.05@2500,stall=0@3e5+2e5,crash=3@5e5,part=1-4@1e5+2e5";
      ]
  in
  List.map
    (fun s ->
      match Fault.of_spec s with
      | Ok p -> p
      | Error m -> failwith (Printf.sprintf "bad built-in plan %S: %s" s m))
    specs

let make_runtime sh ~seed =
  Runtime.create
    {
      Runtime.platform = Tm2c_noc.Platform.scc;
      total_cores = sh.sh_cores;
      service_cores = sh.sh_cores / 2;
      deployment = Runtime.Dedicated;
      policy = sh.sh_policy;
      wmode = sh.sh_wmode;
      batching = true;
      max_skew_ns = 3_000.0;
      seed;
      mem_words = 1 lsl 18;
    }

(* One run: returns the workload result and (when [collect]) the
   complete event history for checker replay. *)
let run_shape ?(replicas = 0) sh ~seed ~plan ~hardened ~collect =
  let t = make_runtime sh ~seed in
  (match plan with Some p -> Runtime.set_fault_plan t p | None -> ());
  if hardened then Runtime.set_hardening t ~timeout_ns ~lease_ns ();
  if replicas > 0 then Runtime.enable_replication t ~replicas;
  let col =
    if collect then begin
      let c = Collector.create () in
      Collector.attach c (Runtime.trace t);
      Some c
    end
    else None
  in
  let r = sh.sh_body t ~duration_ns:(sh.sh_duration_ms *. 1e6) in
  let events =
    match col with
    | Some c ->
        Collector.detach (Runtime.trace t);
        Collector.to_list c
    | None -> []
  in
  (r, events)

