type kind = Timer | Wire | Cpu_job | Nic_tx

let kind_index = function Timer -> 0 | Wire -> 1 | Cpu_job -> 2 | Nic_tx -> 3

let kind_of_index = [| Timer; Wire; Cpu_job; Nic_tx |]

let kind_name = function
  | Timer -> "timer"
  | Wire -> "wire"
  | Cpu_job -> "cpu"
  | Nic_tx -> "nic"

(* An event is an int wheel payload: the kind index in the low
   [kind_bits], above it either a closure slot (kind [Timer]) or the
   sink's argument (every other kind). A closure lives in [actions]
   from [schedule] until it runs; its slot then goes back on the free
   stack and is overwritten with [nop], so a fired closure pins
   nothing. Slot ids never reach the wheel's order: that is (time,
   push order) alone. *)
let kind_bits = 2

let kind_mask = (1 lsl kind_bits) - 1

let nop () = ()

type t = {
  wheel : Timing_wheel.t;
  mutable clock : int;
  root_rng : Crypto.Rng.t;
  mutable executed : int;
  kind_counts : int array;
  (* Closure slots, grown lazily by doubling; [free] holds the
     [n_free] unused ones. *)
  mutable actions : (unit -> unit) array;
  mutable free : int array;
  mutable n_free : int;
  mutable sink : (kind -> int -> unit) option;
}

let create ?(seed = 0xC0FFEEL) () =
  {
    wheel = Timing_wheel.create ();
    clock = 0;
    root_rng = Crypto.Rng.create seed;
    executed = 0;
    kind_counts = Array.make 4 0;
    actions = [||];
    free = [||];
    n_free = 0;
    sink = None;
  }

let now t = t.clock

let rng t = t.root_rng

let set_sink t f =
  if Option.is_some t.sink then
    invalid_arg "Engine.set_sink: the engine already has a sink";
  t.sink <- Some f

let check_time t ~time caller =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "%s: time %d is in the past (now %d)" caller time t.clock)

let grow_slots t =
  let cap = Array.length t.actions in
  let cap' = Int.max 1 (2 * cap) in
  let actions = Array.make cap' nop in
  Array.blit t.actions 0 actions 0 cap;
  t.actions <- actions;
  t.free <- Array.make cap' 0;
  (* Every old slot is in use (the stack was empty); the new ones are
     pushed so the lowest is taken first. *)
  for s = cap' - 1 downto cap do
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1
  done

let schedule_at t ~time action =
  check_time t ~time "Engine.schedule_at";
  if Int.equal t.n_free 0 then grow_slots t;
  t.n_free <- t.n_free - 1;
  let slot = t.free.(t.n_free) in
  t.actions.(slot) <- action;
  Timing_wheel.add t.wheel ~time (slot lsl kind_bits)

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) action

let post t ~time ~kind arg =
  check_time t ~time "Engine.post";
  let k = kind_index kind in
  if Int.equal k 0 || arg < 0 then
    invalid_arg "Engine.post: needs a non-Timer kind and a non-negative argument";
  Timing_wheel.add t.wheel ~time ((arg lsl kind_bits) lor k)

let exec t p =
  t.clock <- Timing_wheel.last_time t.wheel;
  t.executed <- t.executed + 1;
  let k = p land kind_mask in
  t.kind_counts.(k) <- t.kind_counts.(k) + 1;
  let arg = p lsr kind_bits in
  if Int.equal k 0 then begin
    let action = t.actions.(arg) in
    t.actions.(arg) <- nop;
    t.free.(t.n_free) <- arg;
    t.n_free <- t.n_free + 1;
    action ()
  end
  else
    match t.sink with
    | Some sink -> sink kind_of_index.(k) arg
    | None -> failwith "Engine: an event was posted but no sink is set"

(* One [pop_until] per event: it returns the next due payload, or -1
   once nothing is due by [until]. *)
let run t ~until =
  let w = t.wheel in
  let rec loop () =
    let p = Timing_wheel.pop_until w ~until in
    if p >= 0 then begin
      exec t p;
      loop ()
    end
  in
  loop ();
  t.clock <- max t.clock until

let run_until_idle ?(limit = 500_000_000) t =
  let w = t.wheel in
  let rec loop budget =
    if budget > 0 then begin
      let p = Timing_wheel.pop_until w ~until:max_int in
      if p >= 0 then begin
        exec t p;
        loop (budget - 1)
      end
    end
  in
  loop limit;
  if not (Timing_wheel.is_empty w) then
    failwith "Engine.run_until_idle: event limit exceeded"

let events_executed t = t.executed

let executed_by_kind t =
  Array.to_list
    (Array.map (fun k -> (kind_name k, t.kind_counts.(kind_index k))) kind_of_index)

let pending t = Timing_wheel.size t.wheel
