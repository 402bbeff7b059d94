type iid = { proposer : int; index : int }

let iid_compare a b =
  match Int.compare a.proposer b.proposer with
  | 0 -> Int.compare a.index b.index
  | c -> c

let iid_equal a b = Int.equal a.proposer b.proposer && Int.equal a.index b.index

(* Canonical integer hash: two multiplies and a fold, where the
   polymorphic [Hashtbl.hash] walks the record in C. Hash values only
   place keys in buckets; no table built on it is ever traversed. *)
let iid_hash { proposer; index } =
  let h = (proposer * 0x9E3779B1) lxor (index * 0x85EBCA6B) in
  (h lxor (h lsr 16)) land max_int

let iid_key ~n { proposer; index } = (index * n) + proposer

module Iid_tbl = Hashtbl.Make (struct
  type t = iid

  let equal = iid_equal
  let hash = iid_hash
end)

module Iid_ord = struct
  type t = iid

  let compare = iid_compare
end

module Iid_map = Map.Make (Iid_ord)
module Iid_set = Set.Make (Iid_ord)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let pp_iid fmt { proposer; index } = Format.fprintf fmt "%d/%d" proposer index

type tx = {
  tx_id : string;
  payload : string;
  submitted_at : int;
  origin : int;
}

type obfuscation = Clear | Vss of Crypto.Vss.cipher | Structural

type batch = { iid : iid; txs : tx array; obf : obfuscation; created_at : int }

let observable_txs batch =
  match batch.obf with
  | Clear -> Some batch.txs
  | Vss _ | Structural -> None

type proposal = { batch : batch; st : int option array; digest : string }

let proposal batch st =
  let parts =
    Printf.sprintf "%d.%d.%d" batch.iid.proposer batch.iid.index
      batch.created_at
    :: (match batch.obf with
       | Clear | Structural ->
           Array.to_list (Array.map (fun tx -> tx.tx_id) batch.txs)
       | Vss cipher -> [ Crypto.Vss.tag cipher ])
    @ Array.to_list
        (Array.map
           (function Some s -> string_of_int s | None -> "_")
           st)
  in
  { batch; st; digest = Crypto.Sha256.digest_list parts }

let proposal_digest p = p.digest

let requested_seq ~n ~f st =
  if not (Int.equal (Array.length st) n) then None
  else begin
    (* Blanks sort last: as [max_int] they are the largest entries, so
       once at least n − f predictions are known the (n−f)-th smallest
       entry overall — the f-th largest, counting from 0 — is the
       (n−f)-th smallest known value. *)
    let vals = Array.make n max_int and known = ref 0 in
    for i = 0 to n - 1 do
      match st.(i) with
      | Some s ->
          vals.(i) <- s;
          incr known
      | None -> ()
    done;
    if !known < n - f then None
    else Some (Order_stat.kth_largest ~scratch:vals vals f)
  end

type status = {
  locked_upto : int;
  min_pending : int;
  committed : int;
  accepted_recent : (iid * int) list;
}

let no_pending = max_int / 2

type vote =
  | Vote_one of {
      digest : string;
      share : Crypto.Threshold.share option;
      seq_obs : int;
    }
  | Vote_zero of { seq_obs : int }

type body =
  | Init of {
      proposal : proposal;
      share : Crypto.Vss.decryption_share option;
      sigma : Crypto.Schnorr.signature option;
    }
  | Vote of { iid : iid; vote : vote }
  | Deliver of {
      iid : iid;
      proposal : proposal;
      proof : Crypto.Threshold.combined option;
    }
  | Est of { iid : iid; round : int; value : int; proposal : proposal option }
  | Coord of { iid : iid; round : int; value : int }
  | Aux of { iid : iid; round : int; values : int list }
  | Reveal of { iid : iid; share : Crypto.Vss.decryption_share option }
  | Heartbeat
  | Nudge of { iid : iid }
  | Decided of { iid : iid; value : int; proposal : proposal option }
  | Sync_req of { from_count : int }
  | Sync_resp of {
      from_count : int;
      upto : int;
      entries : (batch * int) list;
      tail : (iid * int) list;
    }

type msg = { status : status; body : body }

let tx_wire_size = 32

(* The status header (three scalars plus framing) is modelled at a
   fixed 48 bytes; each gossiped entry adds 24. *)
let status_size status = 48 + (24 * List.length status.accepted_recent)

let body_size = function
  | Init { proposal; _ } ->
      (* payload + per-node prediction + key share + signature *)
      96
      + (tx_wire_size * Array.length proposal.batch.txs)
      + (8 * Array.length proposal.st)
  | Vote _ -> 112 (* digest + share + clock *)
  | Deliver _ -> 160 (* digest + combined proof; payload by reference *)
  | Est _ -> 48
  | Coord _ -> 40
  | Aux { values; _ } -> 40 + (8 * List.length values)
  | Reveal _ -> 88
  | Heartbeat -> 8
  | Nudge _ -> 16
  | Decided { proposal; _ } -> (
      40
      + match proposal with
        | None -> 0
        | Some p ->
            (tx_wire_size * Array.length p.batch.txs) + (8 * Array.length p.st))
  | Sync_req _ -> 16
  | Sync_resp { entries; tail; _ } ->
      List.fold_left
        (fun acc (batch, _) -> acc + 48 + (tx_wire_size * Array.length batch.txs))
        (24 + (24 * List.length tail))
        entries

let msg_size { status; body } = status_size status + body_size body

let msg_cost (c : Sim.Costs.t) { status; body } =
  let gossip = 1 + (List.length status.accepted_recent / 8) in
  let body_cost =
    match body with
    | Init { proposal; _ } ->
        (* Verify the broadcaster's signature, hash the batch, check
           the local prediction, stash the key share. *)
        let kb = 1 + (tx_wire_size * Array.length proposal.batch.txs / 1024) in
        c.sig_verify + (c.hash_per_kb * kb) + 6
    | Vote _ -> 2 (* MAC-authenticated channel; counted, not verified *)
    | Deliver _ -> c.combined_verify
    | Est _ -> 2
    | Coord _ -> 2
    | Aux _ -> 2
    | Reveal _ -> c.vss_partial_decrypt / 4 (* share validity check *)
    | Heartbeat -> 1
    | Nudge _ -> 1 (* table lookup *)
    | Decided _ -> 2 (* tally update; adopted only after f+1 senders *)
    | Sync_req _ -> 2 (* output-log slice *)
    | Sync_resp { entries; tail; _ } ->
        (* Hash every replayed batch on the way into the local log;
           the tail is read like gossip. *)
        (List.length tail / 8)
        + List.fold_left
          (fun acc (batch, _) ->
            let kb = 1 + (tx_wire_size * Array.length batch.txs / 1024) in
            acc + (c.hash_per_kb * kb))
          2 entries
  in
  c.msg_overhead + gossip + body_cost
