type violation = {
  v_at_us : int;
  v_node : int;
  v_kind : string;
  v_detail : string;
  v_active_faults : string list;
}

type t = {
  engine : Sim.Engine.t;
  faults : Sim.Faults.plan;
  (* Canonical committed sequence: position i is fixed by the first
     node to commit an i-th batch; everyone else must agree. Growable
     array so the check is O(1) per commit. *)
  mutable canon : string array;
  mutable canon_len : int;
  counts : int array;  (* batches committed per node *)
  mutable first_violation : violation option;
  from_us : int;
  until_us : int;
  mutable last_progress_us : int;
  mutable stall_open : int option;
  mutable stalls_rev : (int * int) list;
}

(* The watchdog ticks every [check_interval_us]; a stall opens after
   [stall_after_us] without cluster-wide progress. *)
let check_interval_us = 100_000

let stall_after_us = 1_000_000

let create engine ~n ~faults ~from_us ~until_us () =
  {
    engine;
    faults;
    canon = Array.make 64 "";
    canon_len = 0;
    counts = Array.make n 0;
    first_violation = None;
    from_us;
    until_us;
    last_progress_us = from_us;
    stall_open = None;
    stalls_rev = [];
  }

let violate t ~node ~kind detail =
  let v =
    {
      v_at_us = Sim.Engine.now t.engine;
      v_node = node;
      v_kind = kind;
      v_detail = detail;
      v_active_faults = Sim.Faults.active t.faults ~now:(Sim.Engine.now t.engine);
    }
  in
  if Option.is_none t.first_violation then t.first_violation <- Some v

let append_canon t key =
  if t.canon_len >= Array.length t.canon then begin
    let bigger = Array.make (2 * Array.length t.canon) "" in
    Array.blit t.canon 0 bigger 0 t.canon_len;
    t.canon <- bigger
  end;
  t.canon.(t.canon_len) <- key;
  t.canon_len <- t.canon_len + 1

let on_commit t ~node ~key =
  let idx = t.counts.(node) in
  (* Feeding strictly in commit order makes each node's stream
     append-only by construction, so agreement at every index is both
     the prefix and the durability check: a recovered node that
     re-committed or rewrote history would disagree at an index < its
     previous count. *)
  if idx < t.canon_len then begin
    if not (String.equal t.canon.(idx) key) then
      violate t ~node ~kind:"prefix-agreement"
        (Printf.sprintf "position %d: committed %s, canonical %s" idx key
           t.canon.(idx))
  end
  else append_canon t key;
  t.counts.(node) <- idx + 1;
  t.last_progress_us <- Sim.Engine.now t.engine

let tick t =
  let now = Sim.Engine.now t.engine in
  let stalled = now - t.last_progress_us > stall_after_us in
  match (t.stall_open, stalled) with
  | None, true -> t.stall_open <- Some t.last_progress_us
  | Some started, false ->
      t.stalls_rev <- (started, t.last_progress_us) :: t.stalls_rev;
      t.stall_open <- None
  | None, false | Some _, true -> ()

let start t =
  (* Self-rescheduling tick bounded by [until_us], so the monitor adds
     no events past the run horizon (and cannot livelock
     [run_until_idle]). *)
  let rec arm time =
    if time <= t.until_us then
      ignore
        (Sim.Engine.schedule_at t.engine ~time (fun () ->
             tick t;
             arm (time + check_interval_us))
          : Sim.Engine.timer)
  in
  arm (t.from_us + check_interval_us)

let finalize t =
  (match t.stall_open with
  | Some started ->
      t.stalls_rev <- (started, Sim.Engine.now t.engine) :: t.stalls_rev;
      t.stall_open <- None
  | None ->
      let now = Sim.Engine.now t.engine in
      if now - t.last_progress_us > stall_after_us then
        t.stalls_rev <- (t.last_progress_us, now) :: t.stalls_rev)

let first_violation t = t.first_violation

let stall_windows t = List.rev t.stalls_rev

let pp_violation fmt v =
  Format.fprintf fmt "%s at %dus on node %d: %s%s" v.v_kind v.v_at_us v.v_node
    v.v_detail
    (match v.v_active_faults with
    | [] -> ""
    | fs -> " [active: " ^ String.concat "; " fs ^ "]")
