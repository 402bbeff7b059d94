(* Zipf(s) sampling over {0..n-1} by inverse-CDF over precomputed
   cumulative weights: O(n) floats once, O(log n) per sample, and no
   per-sample allocation. s = 0 degenerates to uniform. *)

type t = { cum : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0.0 then invalid_arg "Zipf.create: s must be non-negative";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cum.(i) <- !acc
  done;
  { cum }

let sample t rng =
  let n = Array.length t.cum in
  let u = Crypto.Rng.float rng *. t.cum.(n - 1) in
  (* first index whose cumulative weight reaches u *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cum.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo
