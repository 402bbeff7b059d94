type t = {
  table : (string, string) Hashtbl.t;
  mutable digest : string;
  mutable applied : int;
}

type result = Unit | Value of string option

let create () = { table = Hashtbl.create 64; digest = ""; applied = 0 }

let apply_payload t s =
  t.applied <- t.applied + 1;
  t.digest <- Crypto.Sha256.digest_list [ t.digest; s ];
  match String.split_on_char ' ' s with
  | [ "put"; k; v ] ->
      Hashtbl.replace t.table k v;
      Some Unit
  | [ "get"; k ] -> Some (Value (Hashtbl.find_opt t.table k))
  | [ "del"; k ] ->
      Hashtbl.remove t.table k;
      Some Unit
  | _ -> None

let size t = Hashtbl.length t.table

let applied t = t.applied

let state_digest t = if t.digest = "" then Crypto.Sha256.digest "" else t.digest
