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

(* Append-only form. levels.(k).nodes.(0 .. len-1) are the level-k
   nodes whose whole subtree is final: every leaf, and a parent only
   once both its children are final. Appending is a binary counter
   (a completed pair is hashed into the level above), so the final
   nodes cost O(1) hashes per leaf amortized. Each level then has at
   most one node past them, on the right edge, which [root] rebuilds
   from the final nodes in O(log n) hashes. *)
module Acc = struct
  type level = { mutable nodes : string array; mutable len : int }

  type t = {
    mutable levels : level array;
    mutable size : int;
    mutable root : string option;  (** cleared by [add] *)
  }

  let create () = { levels = [||]; size = 0; root = None }

  let level t k =
    if k = Array.length t.levels then
      t.levels <-
        Array.append t.levels [| { nodes = Array.make 8 ""; len = 0 } |];
    t.levels.(k)

  let rec push t k digest =
    let lvl = level t k in
    if lvl.len = Array.length lvl.nodes then begin
      let grown = Array.make (2 * lvl.len) "" in
      Array.blit lvl.nodes 0 grown 0 lvl.len;
      lvl.nodes <- grown
    end;
    lvl.nodes.(lvl.len) <- digest;
    lvl.len <- lvl.len + 1;
    if lvl.len land 1 = 0 then
      push t (k + 1) (node_hash lvl.nodes.(lvl.len - 2) digest)

  let add t payload =
    push t 0 (leaf_hash payload);
    t.size <- t.size + 1;
    t.root <- None

  (* Walk up with [edge], the level-k node past the final ones (if the
     level of [of_leaves] has [width] > final nodes), pairing it the
     way [of_leaves] does: with the last final node when their count
     is odd, else with a copy of itself. *)
  let compute_root t =
    let rec up k width edge =
      let final = if k < Array.length t.levels then t.levels.(k).len else 0 in
      if width = 1 then
        match edge with Some e -> e | None -> t.levels.(k).nodes.(0)
      else
        let edge =
          if final land 1 = 0 then Option.map (fun e -> node_hash e e) edge
          else
            let l = t.levels.(k).nodes.(final - 1) in
            Some (node_hash l (Option.value edge ~default:l))
        in
        up (k + 1) ((width + 1) / 2) edge
    in
    if t.size = 0 then empty_root else up 0 t.size None

  let root t =
    match t.root with
    | Some r -> r
    | None ->
        let r = compute_root t in
        t.root <- Some r;
        r
end
