let max_faulty n =
  if n < 1 then invalid_arg "Quorums.max_faulty: n must be positive";
  (n - 1) / 3

let quorum n = n - max_faulty n

let supermajority n = (2 * max_faulty n) + 1

let aux_union ~need ~in_bin auxs =
  let valid = List.filter (List.for_all in_bin) auxs in
  if List.length valid < need then None
  else Some (List.sort_uniq Int.compare (List.concat valid))

let aux_set values = List.fold_left (fun m v -> m lor (1 lsl v)) 0 values

let aux_quorum counts ~need ~bin =
  let senders = ref 0 and union = ref 0 in
  for m = 0 to 3 do
    if Int.equal (m land lnot bin) 0 && counts.(m) > 0 then begin
      senders := !senders + counts.(m);
      union := !union lor m
    end
  done;
  if !senders >= need then !union else -1
