(** Pompē configuration. Defaults mirror the Lyra experiments (§VI-B):
    batch size 800, HotStuff under the same Δ. *)

type t = {
  n : int;
  delta_us : int;
  batch_size : int;
  batch_timeout_us : int;
  max_inflight : int;  (** a node's unsequenced own batches *)
  block_capacity : int;  (** batches per HotStuff block *)
  exec_window_us : int;  (** stable-execution margin behind the newest
                             committed sequence number *)
  tx_size : int;
  clock_offset_max_us : int;
}

val default : n:int -> t

(** {2 Fixed retry constants} *)

(** First payload-fetch backoff step: 200 ms. *)
val fetch_base_us : int

(** Payload fetch attempts before giving up: 10. *)
val fetch_retry_max : int

(** First Order_req re-broadcast delay: 1 s. *)
val order_retry_us : int

(** Ordering-phase retries before giving up: 8. *)
val order_retry_max : int

val f : t -> int

val supermajority : t -> int
