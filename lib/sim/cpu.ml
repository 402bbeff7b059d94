type t = {
  engine : Engine.t;
  cores : int;
  free_at : int array;  (** per-core absolute time the core becomes idle *)
  mutable busy : int;
  kind : Engine.kind;
  mutable timeline : Metrics.Timeline.t option;
}

let create ?(cores = 1) ?(kind = Engine.Cpu_job) engine =
  if cores < 1 then invalid_arg "Cpu.create: cores must be >= 1";
  { engine; cores; free_at = Array.make cores 0; busy = 0; kind; timeline = None }

let attach_timeline t tl = t.timeline <- Some tl

(* c concurrent servers: each job runs on the earliest-free core at its
   full service time (lowest core index breaks ties, keeping runs
   deterministic). The previous model divided the service time by
   [cores] on a single server, which under-charges a lone job by a
   factor of [cores] and serializes jobs that real cores would overlap. *)
let submit t ~service_us job =
  if service_us < 0 then invalid_arg "Cpu.submit: negative service time";
  let now = Engine.now t.engine in
  let core = ref 0 in
  for i = 1 to t.cores - 1 do
    if t.free_at.(i) < t.free_at.(!core) then core := i
  done;
  let start = max now t.free_at.(!core) in
  let finish = start + service_us in
  t.free_at.(!core) <- finish;
  t.busy <- t.busy + service_us;
  (match t.timeline with
  | Some tl when service_us > 0 ->
      Metrics.Timeline.add_range tl ~from_us:start ~until_us:finish
        (float_of_int service_us)
  | _ -> ());
  Engine.post t.engine ~time:finish ~kind:t.kind job

let cores t = t.cores

let busy_us t = t.busy

let utilization t ~over_us =
  if over_us <= 0 then 0.0
  else float_of_int t.busy /. float_of_int (over_us * t.cores)

let backlog_us t =
  let earliest = ref t.free_at.(0) in
  for i = 1 to t.cores - 1 do
    if t.free_at.(i) < !earliest then earliest := t.free_at.(i)
  done;
  max 0 (!earliest - Engine.now t.engine)
