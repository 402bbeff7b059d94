(* Amortized signature verification.

   Protocol nodes see the same signature many times: a quorum
   certificate carries 2f+1 shares and is relayed to all n nodes, a
   proposal signature rides every retransmission. The cache
   deduplicates by the full verification input (pubkey, msg, sig), so
   each distinct triple costs one [Schnorr.verify] per node for the
   lifetime of its entry instead of one per arrival.

   The table is keyed by the message (a 32-byte digest on the hot
   paths); each message owns a short bucket of (pk, r, s, verdict)
   entries matched by integer equality on the exact signature fields.
   A probe hashes the message once, and a certificate hashes it once
   for all its shares. Matching [s]
   exactly, not mod p, matters: (r, s + p) is a different signature
   from (r, s), and [Schnorr.verify] rejects it.

   The cache is an explicit value threaded through each node (never a
   module-global), so concurrent simulated nodes stay independent and
   a seeded run is reproducible: lookups consume no randomness and the
   table is never traversed, only probed. Verification results are
   pure, so memoization — and forgetting, when the table is reset at
   its bound — is observationally equivalent to direct verification,
   pinned by QCheck properties in test_signatures.ml. *)

module Msg_table = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash = String.hash
end)

type entry = { pk : int; r : int; s : int; ok : bool }

type t = {
  table : entry list Msg_table.t;
  mutable hits : int;
  mutable misses : int;
}

(* Distinct messages held before the table is emptied. A node needs a
   certificate's shares only while its instance is in flight, far fewer
   than this many digests. *)
let max_messages = 4096

(* Entries kept per message: the proposer's signature and one share per
   signer at n = 100 fit, and a sender forging variants of one message
   cannot grow a bucket past it (their verdicts are computed, not
   stored). *)
let max_entries = 256

let create () = { table = Msg_table.create 256; hits = 0; misses = 0 }

let hits t = t.hits

let misses t = t.misses

let size t = Msg_table.length t.table

let rec find pk r s = function
  | [] -> raise_notrace Not_found
  | e :: rest ->
      if Int.equal e.pk pk && Int.equal e.r r && Int.equal e.s s then e.ok
      else find pk r s rest

(* [msg]'s bucket; [] when the table holds no entry for it (a stored
   bucket is never empty). *)
let bucket t msg =
  match Msg_table.find t.table msg with
  | b -> b
  | exception Not_found -> []

(* The verdict for (pk, sg) in [bucket]; raises [Not_found] on a miss. *)
let cached t ~pk (sg : Schnorr.signature) bucket =
  let ok = find pk (Field.to_int sg.r) sg.s bucket in
  t.hits <- t.hits + 1;
  ok

(* Records a computed verdict in [msg]'s [bucket] and returns the
   bucket as it now stands. *)
let store t ~pk msg (sg : Schnorr.signature) ok bucket =
  t.misses <- t.misses + 1;
  (match bucket with
  | [] when Msg_table.length t.table >= max_messages -> Msg_table.reset t.table
  | _ -> ());
  if List.compare_length_with bucket max_entries < 0 then begin
    let grown = { pk; r = Field.to_int sg.r; s = sg.s; ok } :: bucket in
    Msg_table.replace t.table msg grown;
    grown
  end
  else bucket

let verify t ~pk msg sg =
  let pk_int = Field.to_int pk in
  let b = bucket t msg in
  match cached t ~pk:pk_int sg b with
  | ok -> ok
  | exception Not_found ->
      let ok = Schnorr.verify ~pk msg sg in
      ignore (store t ~pk:pk_int msg sg ok b : entry list);
      ok

(* [verify_by] against [msg]'s bucket held in [b], which a miss grows. *)
let verify_in t ~dir ~signer msg sg b =
  signer >= 0
  && signer < Keys.size dir
  &&
  let pk = Field.to_int (Keys.public_key dir signer) in
  match cached t ~pk sg !b with
  | ok -> ok
  | exception Not_found ->
      let ok = Schnorr.verify_by ~dir ~signer msg sg in
      b := store t ~pk msg sg ok !b;
      ok

let verify_by t ~dir ~signer msg sg =
  verify_in t ~dir ~signer msg sg (ref (bucket t msg))

let share_verify t ~dir msg (sh : Threshold.share) =
  verify_by t ~dir ~signer:sh.signer msg sh.sigma

let rec ascending (shares : Threshold.share array) i =
  i + 1 >= Array.length shares
  || shares.(i).signer < shares.(i + 1).signer && ascending shares (i + 1)

(* Batch entry point for quorum certificates: same acceptance predicate
   as [Threshold.verify_combined] (>= threshold distinct signers, every
   distinct share valid), with each share going through the cache. The
   message's bucket is looked up once and walked for every share, so a
   certificate assembled from shares this node already verified one by
   one costs one table probe and no crypto at all. [Threshold.combine]
   emits shares in strictly ascending signer order, which already is
   the deduplicated list, so that case skips the sort. *)
let verify_combined t ~dir ~threshold msg (c : Threshold.combined) =
  let b = ref (bucket t msg) in
  let share_ok (sh : Threshold.share) =
    verify_in t ~dir ~signer:sh.signer msg sh.sigma b
  in
  if ascending c.shares 0 then
    Array.length c.shares >= threshold && Array.for_all share_ok c.shares
  else
    let distinct =
      Array.to_list c.shares
      |> List.sort_uniq (fun (a : Threshold.share) b ->
             Int.compare a.signer b.signer)
    in
    List.length distinct >= threshold && List.for_all share_ok distinct
