(** Deduplicating signature-verification cache.

    Memoizes {!Schnorr.verify} on the full verification input
    [(pubkey, msg, signature)] and offers a batch entry point for
    quorum certificates, so a certificate seen by all n nodes is
    verified once per node rather than once per (node, signer, arrival).

    Entries match the exact signature fields, so no two distinct
    signatures share a verdict. The table holds at most {!max_messages}
    distinct messages, with at most {!max_entries} verdicts each, and
    is emptied when a new message would exceed that; a forgotten
    verdict is simply recomputed.

    A cache is an explicit per-node value: create one per node, never
    share across nodes. Lookups consume no randomness and results are
    memoized pure functions, so enabling the cache cannot perturb a
    seeded run. *)

type t

val create : unit -> t

(** Cached {!Schnorr.verify}. *)
val verify : t -> pk:Field.t -> string -> Schnorr.signature -> bool (* lint: allow S005 test_signatures probes the cache by key *)

(** Cached {!Schnorr.verify_by}; an unknown [signer] is rejected, as
    there. *)
val verify_by :
  t -> dir:Keys.directory -> signer:int -> string -> Schnorr.signature -> bool

(** Cached {!Threshold.share_verify}. *)
val share_verify :
  t -> dir:Keys.directory -> string -> Threshold.share -> bool

(** Cached {!Threshold.verify_combined}: identical acceptance predicate,
    with every share probe going through the cache. *)
val verify_combined :
  t ->
  dir:Keys.directory ->
  threshold:int ->
  string ->
  Threshold.combined ->
  bool

(** Probes answered from the cache. *)
val hits : t -> int (* lint: allow S005 cache probe for test_signatures *)

(** Probes that fell through to a real verification. *)
val misses : t -> int (* lint: allow S005 cache probe for test_signatures *)

(** Distinct messages currently held. *)
val size : t -> int (* lint: allow S005 bounded-state probe for test_signatures *)

(** The bound on {!size}. *)
val max_messages : int (* lint: allow S005 bounded-state probe for test_signatures *)

(** Verdicts kept per message; later signatures on a full message are
    verified on every probe. *)
val max_entries : int (* lint: allow S005 bounded-state probe for test_signatures *)
