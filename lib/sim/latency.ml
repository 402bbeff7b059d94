type t = {
  base : src:int -> dst:int -> int;
  sample : Crypto.Rng.t -> src:int -> dst:int -> int;
}

let sample t rng ~src ~dst = t.sample rng ~src ~dst

let base_us t ~src ~dst = t.base ~src ~dst

let constant d =
  { base = (fun ~src:_ ~dst:_ -> d); sample = (fun _ ~src:_ ~dst:_ -> d) }

let uniform ~lo ~hi =
  if hi < lo then invalid_arg "Latency.uniform: hi < lo";
  {
    base = (fun ~src:_ ~dst:_ -> (lo + hi) / 2);
    sample = (fun rng ~src:_ ~dst:_ -> lo + Crypto.Rng.int rng (hi - lo + 1));
  }

(* No sampled link delay drops below this, however wide the jitter. *)
let floor_us = 50

(* [Crypto.Rng.float], scaled here so the result stays unboxed. *)
let[@inline] unit_float rng =
  float_of_int (Crypto.Rng.bits53 rng) /. 9007199254740992.0

(* [Crypto.Rng.gaussian], with the same draws and float operations in
   the same order; inlined into [regional]'s sampler so no float is
   boxed on the per-message path. *)
let[@inline] gaussian rng ~mu ~sigma =
  let u1 = ref (unit_float rng) in
  while !u1 = 0.0 do
    u1 := unit_float rng
  done;
  let u2 = unit_float rng in
  let r = sqrt (-2.0 *. log !u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let regional ?(jitter = 0.05) regions =
  let base ~src ~dst = Regions.one_way_us regions.(src) regions.(dst) in
  let sample rng ~src ~dst =
    let b = base ~src ~dst in
    let mu = float_of_int b in
    let v = gaussian rng ~mu ~sigma:(jitter *. mu) in
    Int.max floor_us (int_of_float v)
  in
  { base; sample }
