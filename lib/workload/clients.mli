(** Client load generation (§VI-A: "closed loop clients" on dedicated
    machines; open-loop Poisson clients for the saturation sweeps).

    Clients are protocol-agnostic: they drive any node through a
    [submit] closure and learn about completion when the harness calls
    {!Closed.tx_done}. Latency accounting lives in the harness (the
    node's output callback knows submission times). *)

module Closed : sig
  (** A pool of closed-loop clients attached to one node: each client
      keeps exactly one transaction outstanding and submits the next
      as soon as the previous commits. *)
  type t

  val create :
    clients:int ->
    payload:(unit -> string) ->
    submit:(payload:string -> string) ->
    unit ->
    t

  val start : t -> unit

  (** [tx_done t tx_id] releases the client that submitted [tx_id]. *)
  val tx_done : t -> string -> unit

  val submitted : t -> int (* lint: allow S005 client-pool probe for test_metrics_workload *)

  val completed : t -> int (* lint: allow S005 client-pool probe for test_metrics_workload *)
end

module Open : sig
  (** Open-loop Poisson arrivals at [rate_per_sec], independent of
      completions — used to find saturation (Fig. 3). *)
  type t

  val create :
    Sim.Engine.t ->
    rate_per_sec:float ->
    payload:(unit -> string) ->
    submit:(payload:string -> string) ->
    unit ->
    t

  (** Start the stream; a second call does nothing. The stream runs
      for the rest of the simulation. *)
  val start : t -> unit

  val submitted : t -> int (* lint: allow S005 client-pool probe for test_metrics_workload *)
end

(** Payload generators. *)

(** Fixed-size opaque value (the paper's 32-byte transactions). *)
val fixed_payload : size:int -> Crypto.Rng.t -> unit -> string
