type keypair = { id : int; sk : int; pk : Field.t }

(* Each key's fixed-base table is built on its first verification, so
   setting up a directory costs no more than before. *)
type directory = { pks : Field.t array; tables : Field.table Lazy.t array }

let group_order = Field.p - 1

let generate rng ~id =
  let rec draw () =
    let sk = Rng.int rng group_order in
    if sk = 0 then draw () else sk
  in
  let sk = draw () in
  { id; sk; pk = Field.pow_table Field.g_table sk }

let setup rng n =
  let pairs = Array.init n (fun id -> generate rng ~id) in
  let pks = Array.map (fun kp -> kp.pk) pairs in
  (pairs, { pks; tables = Array.map (fun pk -> lazy (Field.table pk)) pks })

let public_key dir i = dir.pks.(i)

let public_table dir i = Lazy.force dir.tables.(i)

let size dir = Array.length dir.pks
