(* Deterministic views of Hashtbl contents. Protocol and simulator
   code must never observe the table's hash order (lint rule D001):
   it is unspecified, differs across compiler versions, and would let
   decided sequence numbers or metrics drift between identical runs. *)

let sorted_bindings ~cmp tbl =
  let all =
    (* The one sanctioned traversal: the sort below erases the table's
       unspecified iteration order.  lint: allow D001 *)
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  in
  List.sort (fun (ka, _) (kb, _) -> cmp ka kb) all
