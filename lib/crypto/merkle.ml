(* Levels bottom-up: levels.(0) are leaf digests, the last level is the
   singleton root. Odd levels duplicate their last node, so audit-path
   verification only needs the index parity at each level. *)
type tree = { levels : string array array; size : int }

let leaf_hash payload = Sha256.digest_list [ "\x00"; payload ]

let node_hash l r = Sha256.digest_list [ "\x01"; l; r ]

let empty_root = Sha256.digest ""

let of_leaves leaves =
  match leaves with
  | [] -> { levels = [||]; size = 0 }
  | _ ->
      let level0 = Array.of_list (List.map leaf_hash leaves) in
      let rec build acc level =
        if Array.length level = 1 then List.rev (level :: acc)
        else
          let n = Array.length level in
          let half = (n + 1) / 2 in
          let next =
            Array.init half (fun i ->
                let l = level.(2 * i) in
                let r = if (2 * i) + 1 < n then level.((2 * i) + 1) else l in
                node_hash l r)
          in
          build (level :: acc) next
      in
      { levels = Array.of_list (build [] level0); size = Array.length level0 }

let root t = if t.size = 0 then empty_root else t.levels.(Array.length t.levels - 1).(0)

let size t = t.size

let proof t i =
  if i < 0 || i >= t.size then invalid_arg "Merkle.proof: index out of range";
  let path = ref [] in
  let idx = ref i in
  for lvl = 0 to Array.length t.levels - 2 do
    let level = t.levels.(lvl) in
    let n = Array.length level in
    let sib = if !idx land 1 = 1 then !idx - 1 else !idx + 1 in
    let sib = if sib >= n then !idx else sib in
    path := level.(sib) :: !path;
    idx := !idx / 2
  done;
  List.rev !path

let verify_proof ~root:expected ~leaf ~index ~size path =
  if index < 0 || index >= size then false
  else
    let digest, _ =
      List.fold_left
        (fun (cur, idx) sib ->
          let next =
            if idx land 1 = 1 then node_hash sib cur else node_hash cur sib
          in
          (next, idx / 2))
        (leaf_hash leaf, index)
        path
    in
    String.equal digest expected

let root_of_leaves leaves = root (of_leaves leaves)
