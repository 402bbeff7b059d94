let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Shared rank interpolation over an already-sorted array; every
   percentile entry point funnels through here so a caller holding a
   sorted snapshot pays no copy and no re-sort per quantile. *)
let percentile_sorted p sorted =
  let n = Array.length sorted in
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  if n = 0 then 0.0
  else
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_copy xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  sorted

let percentile p xs = percentile_sorted p (sorted_copy xs)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty input";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0))
    xs

(* The empty summary is all zeros rather than an exception: recorders
   legitimately end a run empty (warm-up ate every sample, a crashed
   node committed nothing) and every report site would otherwise need
   its own emptiness guard. *)
let summary_sorted sorted =
  if Array.length sorted = 0 then (0.0, 0.0, 0.0, 0.0, 0.0)
  else
    ( mean sorted,
      percentile_sorted 50.0 sorted,
      percentile_sorted 95.0 sorted,
      percentile_sorted 99.0 sorted,
      sorted.(Array.length sorted - 1) )
