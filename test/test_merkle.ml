(* Merkle roots: every size against a reference tree, domain separation. *)

open Crypto

let leaves k = List.init k (fun i -> Printf.sprintf "leaf-%d" i)

let test_empty () =
  Alcotest.(check string) "root of empty" (Sha256.digest "") (Merkle.root_of_leaves [])

(* The tree the implementation must build: leaf and node hashes under
   distinct prefixes, an odd level's last node paired with itself. *)
let reference_root ls =
  let node l r = Sha256.digest_list [ "\x01"; l; r ] in
  let rec pair = function
    | l :: r :: rest -> node l r :: pair rest
    | [ l ] -> [ node l l ]
    | [] -> []
  in
  let rec up = function [ h ] -> h | level -> up (pair level) in
  up (List.map (fun l -> Sha256.digest_list [ "\x00"; l ]) ls)

let test_singleton () =
  Alcotest.(check string) "root is the leaf hash"
    (Sha256.digest_list [ "\x00"; "only" ])
    (Merkle.root_of_leaves [ "only" ])

let test_all_sizes () =
  for k = 1 to 17 do
    Alcotest.(check string) (Printf.sprintf "size %d" k) (reference_root (leaves k))
      (Merkle.root_of_leaves (leaves k))
  done

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

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "all sizes" `Quick test_all_sizes;
    Alcotest.test_case "roots differ" `Quick test_roots_differ;
    Alcotest.test_case "domain separation" `Quick test_leaf_not_confused_with_node;
  ]
