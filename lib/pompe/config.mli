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

(** Payload-fetch period: 200 ms. Each time it expires without the
    payload, the next node in turn is asked. *)
val fetch_base_us : int

(** First Order_req re-broadcast delay: 1 s. The delay doubles up to
    16 s and the re-broadcasts go on until the batch is sequenced. *)
val order_retry_us : int

val supermajority : t -> int
