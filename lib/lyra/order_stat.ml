(* Hoare's FIND (Wirth's formulation) over a copy: partition around
   the current candidate for position k until the partitions meet at
   k. Descending order, so "left" holds the larger values. *)
let kth_largest ~(scratch : int array) a k =
  let n = Array.length a in
  if k < 0 || k >= n then invalid_arg "Order_stat.kth_largest";
  Array.blit a 0 scratch 0 n;
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = scratch.(k) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while scratch.(!i) > pivot do incr i done;
      while scratch.(!j) < pivot do decr j done;
      if !i <= !j then begin
        let x = scratch.(!i) in
        scratch.(!i) <- scratch.(!j);
        scratch.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done;
  scratch.(k)
