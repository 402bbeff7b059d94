(* Leaves and internal nodes hash under distinct prefixes; a level with
   an odd count pairs its last node with itself. *)
let leaf_hash payload = Sha256.digest_list [ "\x00"; payload ]

let node_hash l r = Sha256.digest_list [ "\x01"; l; r ]

let root_of_leaves leaves =
  let rec up level =
    let n = Array.length level in
    if n = 1 then level.(0)
    else
      up
        (Array.init ((n + 1) / 2) (fun i ->
             let l = level.(2 * i) in
             node_hash l (if (2 * i) + 1 < n then level.((2 * i) + 1) else l)))
  in
  match leaves with
  | [] -> Sha256.digest ""
  | _ -> up (Array.of_list (List.map leaf_hash leaves))
