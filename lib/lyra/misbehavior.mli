(** Byzantine behaviours studied in §VI-D and §V-E, attached to a node
    at creation. The transport still authenticates and delivers
    faithfully — misbehaviour is entirely in what the node chooses to
    send. *)

type t =
  | Silent
      (** crash from the start: counted in n, contributes nothing *)
  | Flood of { batches_per_sec : int }
      (** spam valid-looking proposals to depress chain quality *)
  | Future_seq of { offset_us : int }
      (** request sequence numbers in the future (memory attack) *)
  | Low_status
      (** report locked = min-pending = 0 to stall prefixes (countered
          by the 2f+1-highest rule, Alg. 4 lines 83/85) *)
  | Equivocate
      (** send different proposals to different halves of the network
          (countered by VVB-Unicity) *)
  | Stale_votes of { delay_us : int }
      (** withhold votes for a while (latency pressure) *)

val equal : t -> t -> bool
