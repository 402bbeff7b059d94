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

let regional ?(jitter = 0.05) regions =
  let base ~src ~dst = Regions.one_way_us regions.(src) regions.(dst) in
  let sample rng ~src ~dst =
    let b = base ~src ~dst in
    let sigma = jitter *. float_of_int b in
    let v = Crypto.Rng.gaussian rng ~mu:(float_of_int b) ~sigma in
    max floor_us (int_of_float v)
  in
  { base; sample }
