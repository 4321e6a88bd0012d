(* Reference DS-Lock checker for the differential test: the full-scan
   shadow that [Tm2c_check.Lockset] used before its per-core held-lock
   index. Dropping a core's locks scans the whole read and write
   tables (sorted, through [Det.fold]) instead of walking the core's
   index, so it is slow but obviously complete — the role [Heap]
   plays for [Wheel]. The rules and messages are [Lockset]'s (see its
   header); this copy must produce an identical report on every
   stream. *)

open Tm2c_core

type live = {
  l_elastic : bool;
  mutable l_published : bool;
  mutable l_doomed : bool;
  mutable l_writes : Types.addr list;
}

type t = {
  mutable violations : Tm2c_check.Lockset.violation list;  (* reversed *)
  mutable n_grants : int;
  mutable seq : int;
  rlocks : (Types.addr, Types.core_id list) Hashtbl.t;
  wlocks : (Types.addr, Types.core_id) Hashtbl.t;
  wepoch : (Types.addr, int) Hashtbl.t;
  mutable cur_epoch : int;
  live : (Types.core_id, live) Hashtbl.t;
  last_outcome : (Types.core_id, [ `Committed | `Aborted ]) Hashtbl.t;
}

let create () =
  {
    violations = [];
    n_grants = 0;
    seq = 0;
    rlocks = Hashtbl.create 512;
    wlocks = Hashtbl.create 512;
    wepoch = Hashtbl.create 512;
    cur_epoch = 0;
    live = Hashtbl.create 64;
    last_outcome = Hashtbl.create 64;
  }

let violation t seq time fmt =
  Printf.ksprintf
    (fun m ->
      t.violations <-
        { Tm2c_check.Lockset.v_seq = seq; v_time = time; v_message = m }
        :: t.violations)
    fmt

let readers t addr =
  match Hashtbl.find_opt t.rlocks addr with Some l -> l | None -> []

let doomed t core =
  match Hashtbl.find_opt t.live core with
  | Some l -> l.l_doomed
  | None -> false

let add_reader t addr core =
  if not (List.mem core (readers t addr)) then
    Hashtbl.replace t.rlocks addr (core :: readers t addr)

let drop_reader t addr core =
  match List.filter (fun c -> c <> core) (readers t addr) with
  | [] -> Hashtbl.remove t.rlocks addr
  | l -> Hashtbl.replace t.rlocks addr l

let drop_core_locks t core =
  let held_r =
    Tm2c_engine.Det.fold
      (fun a cs acc -> if List.mem core cs then a :: acc else acc)
      t.rlocks []
  in
  List.iter (fun a -> drop_reader t a core) held_r;
  let held_w =
    Tm2c_engine.Det.fold
      (fun a c acc -> if c = core then a :: acc else acc)
      t.wlocks []
  in
  List.iter (fun a -> Hashtbl.remove t.wlocks a) held_w

let revoke t victim addr =
  drop_reader t addr victim;
  match Hashtbl.find_opt t.wlocks addr with
  | Some w when w = victim -> Hashtbl.remove t.wlocks addr
  | Some _ | None -> ()

let feed t time ev =
  let seq = t.seq in
  t.seq <- seq + 1;
  match ev with
  | Event.Tx_start { core; elastic; _ } ->
      drop_core_locks t core;
      Hashtbl.replace t.live core
        {
          l_elastic = elastic;
          l_published = false;
          l_doomed = false;
          l_writes = [];
        }
  | Event.Tx_read { core; addr; granted; _ } ->
      if granted then begin
        t.n_grants <- t.n_grants + 1;
        (match Hashtbl.find_opt t.wlocks addr with
        | Some w when w <> core ->
            if doomed t w then Hashtbl.remove t.wlocks addr
            else
              violation t seq time
                "read grant to core %d on addr %d while core %d holds the \
                 write lock"
                core addr w
        | Some _ | None -> ());
        add_reader t addr core
      end
  | Event.Tx_write { core; addr; _ } -> (
      match Hashtbl.find_opt t.live core with
      | Some l ->
          if not (List.mem addr l.l_writes) then l.l_writes <- addr :: l.l_writes
      | None -> ())
  | Event.Wlock_granted { core; addrs } ->
      List.iter
        (fun addr ->
          t.n_grants <- t.n_grants + 1;
          (match Hashtbl.find_opt t.wlocks addr with
          | Some w when w <> core && not (doomed t w) ->
              let granted_epoch =
                match Hashtbl.find_opt t.wepoch addr with
                | Some e -> e
                | None -> t.cur_epoch
              in
              if granted_epoch < t.cur_epoch then
                violation t seq time
                  "write-lock grant to core %d on addr %d crosses an epoch \
                   boundary: core %d was granted it in epoch %d (current \
                   epoch %d) and was never revoked or reclaimed — a \
                   stale-epoch server granted over the failover"
                  core addr w granted_epoch t.cur_epoch
              else
                violation t seq time
                  "write-lock grant to core %d on addr %d while core %d holds \
                   the write lock"
                  core addr w
          | Some _ | None -> ());
          List.iter
            (fun r ->
              if r <> core then
                if doomed t r then drop_reader t addr r
                else
                  violation t seq time
                    "write-lock grant to core %d on addr %d while core %d \
                     holds a read lock"
                    core addr r)
            (readers t addr);
          Hashtbl.replace t.wlocks addr core;
          Hashtbl.replace t.wepoch addr t.cur_epoch)
        addrs
  | Event.Rlock_released { core; addr } ->
      (match Hashtbl.find_opt t.live core with
      | Some l when not l.l_elastic ->
          violation t seq time
            "core %d released its read lock on addr %d mid-attempt in a \
             non-elastic transaction (two-phase violation)"
            core addr
      | Some _ -> ()
      | None ->
          violation t seq time
            "core %d released a read lock on addr %d outside any attempt" core
            addr);
      if not (List.mem core (readers t addr)) then
        violation t seq time
          "core %d released a read lock on addr %d it does not hold" core addr;
      drop_reader t addr core
  | Event.Tx_publish { core; _ } ->
      (match Hashtbl.find_opt t.live core with
      | Some l ->
          l.l_published <- true;
          List.iter
            (fun addr ->
              match Hashtbl.find_opt t.wlocks addr with
              | Some w when w = core -> ()
              | Some w ->
                  violation t seq time
                    "core %d writing back addr %d write-locked by core %d" core
                    addr w
              | None ->
                  violation t seq time
                    "core %d writing back addr %d without holding its write \
                     lock"
                    core addr)
            l.l_writes
      | None -> ());
      drop_core_locks t core
  | Event.Tx_committed { core; _ } ->
      drop_core_locks t core;
      Hashtbl.remove t.live core;
      Hashtbl.replace t.last_outcome core `Committed
  | Event.Tx_aborted { core; _ } ->
      drop_core_locks t core;
      Hashtbl.remove t.live core;
      Hashtbl.replace t.last_outcome core `Aborted
  | Event.Enemy_aborted { victim; addr; winner; _ } ->
      (match Hashtbl.find_opt t.live victim with
      | Some l when l.l_published ->
          violation t seq time
            "enemy-abort CAS by core %d landed on core %d (addr %d) after \
             its publish point — victim was already committed"
            winner victim addr
      | Some l -> l.l_doomed <- true
      | None -> (
          match Hashtbl.find_opt t.last_outcome victim with
          | Some `Committed ->
              violation t seq time
                "enemy-abort CAS by core %d landed on core %d (addr %d) \
                 after its commit and before its next attempt — the \
                 status word reads Committing there, the CAS must fail"
                winner victim addr
          | Some `Aborted | None -> ()));
      revoke t victim addr
  | Event.Lease_reclaimed { victim; addr; aborted; _ } ->
      (if aborted then
         match Hashtbl.find_opt t.live victim with
         | Some l when l.l_published ->
             violation t seq time
               "lease reclaim aborted core %d (addr %d) after its publish \
                point — victim was already committed"
               victim addr
         | Some l -> l.l_doomed <- true
         | None -> ());
      revoke t victim addr
  | Event.Epoch_bumped { epoch; _ } ->
      if epoch > t.cur_epoch then t.cur_epoch <- epoch
  | _ -> ()

let analyze iter =
  let t = create () in
  iter (fun time ev -> feed t time ev);
  {
    Tm2c_check.Lockset.violations = List.rev t.violations;
    n_grants = t.n_grants;
  }
