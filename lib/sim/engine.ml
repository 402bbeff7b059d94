type kind = Timer | Wire | Cpu_job | Nic_tx

let kind_index = function Timer -> 0 | Wire -> 1 | Cpu_job -> 2 | Nic_tx -> 3

let kind_name = function
  | Timer -> "timer"
  | Wire -> "wire"
  | Cpu_job -> "cpu"
  | Nic_tx -> "nic"

let all_kinds = [ Timer; Wire; Cpu_job; Nic_tx ]

(* An event is a wheel entry: it carries the kind tag and the
   cancelled flag, and doubles as the cancellation handle. A cancelled
   event stays in the wheel (removing an arbitrary queued entry would
   mean hunting through its bucket) and is discarded when it reaches
   the head, so cancellations neither inflate [pending] nor burn the
   [run_until_idle] budget. *)
type timer = (unit -> unit) Timing_wheel.entry

type t = {
  wheel : (unit -> unit) Timing_wheel.t;
  mutable clock : int;
  root_rng : Crypto.Rng.t;
  mutable executed : int;
  kind_counts : int array;
}

let create ?(seed = 0xC0FFEEL) () =
  {
    wheel = Timing_wheel.create ();
    clock = 0;
    root_rng = Crypto.Rng.create seed;
    executed = 0;
    kind_counts = Array.make 4 0;
  }

let now t = t.clock

let rng t = t.root_rng

let schedule_at ?(kind = Timer) t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
         time t.clock);
  Timing_wheel.add t.wheel ~time ~kind:(kind_index kind) action

let schedule ?kind t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at ?kind t ~time:(t.clock + delay) action

let cancel = Timing_wheel.cancel

let exec t (e : timer) =
  t.clock <- e.time;
  t.executed <- t.executed + 1;
  t.kind_counts.(e.kind) <- t.kind_counts.(e.kind) + 1;
  e.payload ()

(* One allocation-free head read and one take per event: [head_time]
   discards cancelled heads, so the bound is checked against a
   timestamp something will actually fire at. *)
let run t ~until =
  let w = t.wheel in
  while (not (Timing_wheel.is_empty w)) && Timing_wheel.head_time w <= until do
    exec t (Timing_wheel.take w)
  done;
  t.clock <- max t.clock until

let run_until_idle ?(limit = 500_000_000) t =
  let w = t.wheel in
  let budget = ref limit in
  while (not (Timing_wheel.is_empty w)) && !budget > 0 do
    (* [take] skips cancelled entries without charging the budget: only
       events that actually execute count against the limit. *)
    exec t (Timing_wheel.take w);
    decr budget
  done;
  if not (Timing_wheel.is_empty w) then
    failwith "Engine.run_until_idle: event limit exceeded"

let events_executed t = t.executed

let executed_by_kind t =
  List.map (fun k -> (kind_name k, t.kind_counts.(kind_index k))) all_kinds

let pending t = Timing_wheel.size t.wheel
