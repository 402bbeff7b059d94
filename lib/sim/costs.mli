(** CPU cost model (µs of service time on one core of the paper's
    16-vCPU Xeon machines).

    The simulator charges these per-operation constants when a node
    processes a message, which is how algorithmic differences — Pompē's
    O(n) timestamp-signature verifications per batch versus Lyra's O(1)
    verifications, and HotStuff's leader bottleneck — surface in the
    throughput experiment (Fig. 3). Constants are calibrated to typical
    Ed25519 / BLS / SHA-256 microbenchmark figures; `bench/main.exe
    micro` reports what this repository's own primitives cost. *)

type t = {
  msg_overhead : int;  (** deserialization + dispatch per message *)
  sig_sign : int;  (** Ed25519-class signature *)
  sig_verify : int;
  share_sign : int;  (** threshold-signature share *)
  share_verify : int;
  share_combine : int;  (** combining 2f+1 shares *)
  combined_verify : int;  (** verifying a combined signature (BLS-like) *)
  hash_per_kb : int;
  vss_encrypt_base : int;  (** encrypt + share a batch key *)
  vss_share_per_node : int;  (** per-recipient share material *)
  vss_partial_decrypt : int;
  vss_combine : int;  (** reconstruct key + decrypt a batch *)
  tx_execute : int;  (** apply one transaction to the state machine *)
  tx_validate : int;  (** check one transaction in a batch *)
}

(** Defaults used by every experiment. *)
val default : t
