(* Merkle trees: proofs for every index across sizes, soundness. *)

open Crypto

let leaves k = List.init k (fun i -> Printf.sprintf "leaf-%d" i)

let test_empty () =
  Alcotest.(check string) "root of empty" (Sha256.digest "") (Merkle.root_of_leaves [])

let test_singleton () =
  Alcotest.(check bool) "proof verifies" true
    (Merkle.verify_proof ~root:(Merkle.root_of_leaves [ "only" ]) ~leaf:"only" ~index:0 ~size:1
       (Merkle.proof [ "only" ] 0))

let test_all_sizes_all_indices () =
  for k = 1 to 17 do
    let ls = leaves k in
    let t = ls in
    List.iteri
      (fun i leaf ->
        Alcotest.(check bool)
          (Printf.sprintf "size %d index %d" k i)
          true
          (Merkle.verify_proof ~root:(Merkle.root_of_leaves t) ~leaf ~index:i ~size:k
             (Merkle.proof t i)))
      ls
  done

let test_wrong_leaf_fails () =
  let t = leaves 8 in
  Alcotest.(check bool) "wrong leaf" false
    (Merkle.verify_proof ~root:(Merkle.root_of_leaves t) ~leaf:"evil" ~index:3 ~size:8
       (Merkle.proof t 3))

let test_wrong_index_fails () =
  let t = leaves 8 in
  Alcotest.(check bool) "wrong index" false
    (Merkle.verify_proof ~root:(Merkle.root_of_leaves t) ~leaf:"leaf-3" ~index:4 ~size:8
       (Merkle.proof t 3))

let test_roots_differ () =
  let a = Merkle.root_of_leaves (leaves 8) in
  let b = Merkle.root_of_leaves (leaves 9) in
  let c = Merkle.root_of_leaves ("x" :: List.tl (leaves 8)) in
  Alcotest.(check bool) "size-sensitive" true (not (String.equal a b));
  Alcotest.(check bool) "content-sensitive" true (not (String.equal a c))

let test_leaf_not_confused_with_node () =
  (* Domain separation: a 2-leaf root differs from the leaf-hash of the
     concatenation trick. *)
  let t = Merkle.root_of_leaves [ "ab"; "cd" ] in
  let fake = Merkle.root_of_leaves [ "abcd" ] in
  Alcotest.(check bool) "domain separated" true (not (String.equal t fake))

let test_out_of_range_proof () =
  let t = leaves 4 in
  Alcotest.check_raises "index range" (Invalid_argument "Merkle.proof: index out of range")
    (fun () -> ignore (Merkle.proof t 4))

let prop_random_trees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random trees verify" ~count:100
       QCheck.(pair (int_range 1 40) (int_bound 1000))
       (fun (k, seed) ->
         let rng = Rng.create (Int64.of_int (seed + 1)) in
         let ls = List.init k (fun _ -> Rng.bytes rng 12) in
         let t = ls in
         let i = Rng.int rng k in
         Merkle.verify_proof ~root:(Merkle.root_of_leaves t) ~leaf:(List.nth ls i) ~index:i
           ~size:k (Merkle.proof t i)))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "all sizes/indices" `Quick test_all_sizes_all_indices;
    Alcotest.test_case "wrong leaf" `Quick test_wrong_leaf_fails;
    Alcotest.test_case "wrong index" `Quick test_wrong_index_fails;
    Alcotest.test_case "roots differ" `Quick test_roots_differ;
    Alcotest.test_case "domain separation" `Quick test_leaf_not_confused_with_node;
    Alcotest.test_case "out of range" `Quick test_out_of_range_proof;
    prop_random_trees;
  ]
