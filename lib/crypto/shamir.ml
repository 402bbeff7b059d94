module type SCHEME = sig
  type elt

  type share = { x : elt; y : elt }

  type polynomial = elt array

  val eval : polynomial -> elt -> elt

  val share :
    Rng.t -> secret:elt -> threshold:int -> n:int -> share array * polynomial

  val reconstruct : share list -> elt

  val lagrange_coefficient : elt list -> elt -> elt
end

module Make (F : Field_intf.S) = struct
  type elt = F.t

  type share = { x : elt; y : elt }

  type polynomial = elt array

  let eval poly x =
    Array.fold_right (fun c acc -> F.add c (F.mul x acc)) poly F.zero

  let share rng ~secret ~threshold ~n =
    if threshold <= 0 || threshold > n then
      invalid_arg "Shamir.share: need 0 < threshold <= n";
    let poly =
      Array.init threshold (fun i -> if i = 0 then secret else F.random rng)
    in
    let shares =
      Array.init n (fun i ->
          let x = F.of_int (i + 1) in
          { x; y = eval poly x })
    in
    (shares, poly)

  let lagrange_coefficient xs x =
    (* ∏_{x' ≠ x} x' / (x' − x), evaluated at 0. *)
    List.fold_left
      (fun acc x' ->
        if F.equal x' x then acc else F.mul acc (F.div x' (F.sub x' x)))
      F.one xs

  (* Σ y_i·λ_i with λ_i = num_i / den_i, num_i = ∏_{j≠i} x_j and
     den_i = ∏_{j≠i} (x_j − x_i): the same values [lagrange_coefficient]
     folds, but with every den_i inverted by one batch inversion (prefix
     products) instead of k − 1 divisions per coefficient. *)
  let reconstruct shares =
    let pts = Array.of_list shares in
    let k = Array.length pts in
    let xs = Array.map (fun s -> s.x) pts in
    let distinct = List.sort_uniq F.compare (Array.to_list xs) in
    if List.length distinct <> k then
      invalid_arg "Shamir.reconstruct: duplicate share coordinates";
    let num = Array.make k F.one and den = Array.make k F.one in
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        if j <> i then begin
          num.(i) <- F.mul num.(i) xs.(j);
          den.(i) <- F.mul den.(i) (F.sub xs.(j) xs.(i))
        end
      done
    done;
    (* prefix.(i) = den_0 ⋯ den_{i−1}; walking back from the inverse of
       the full product, inv holds (den_0 ⋯ den_i)^{−1} at step i. *)
    let prefix = Array.make (k + 1) F.one in
    for i = 0 to k - 1 do
      prefix.(i + 1) <- F.mul prefix.(i) den.(i)
    done;
    let inv = ref (F.inv prefix.(k)) and acc = ref F.zero in
    for i = k - 1 downto 0 do
      let lambda = F.mul num.(i) (F.mul !inv prefix.(i)) in
      inv := F.mul !inv den.(i);
      acc := F.add !acc (F.mul pts.(i).y lambda)
    done;
    !acc
end

include Make (Field)
