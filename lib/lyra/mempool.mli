(** The client mempool and batch policy shared by every protocol node
    (Lyra, Pompē, HotStuff, DAG), so all of them turn client
    transactions into proposals the same way: a FIFO queue, one id
    counter per node, and "propose a full batch at once, or whatever
    is queued once a timeout has passed". *)

type t

(** [create engine ~node ~prefix] is an empty mempool for [node];
    {!add} names its transactions ["<prefix><node>-<k>"]. *)
val create : Sim.Engine.t -> node:int -> prefix:string -> t

(** [tx t ~prefix ~payload] mints a transaction stamped now, taking
    the next id ["<prefix><node>-<k>"] from the node's one counter,
    without queuing it. *)
val tx : t -> prefix:string -> payload:string -> Types.tx

(** [add t ~payload] queues a fresh client transaction; returns its id. *)
val add : t -> payload:string -> string

(** Transactions waiting to be proposed. *)
val length : t -> int

(** [take t k] removes the [k] oldest transactions (all, if fewer are
    queued) and returns them oldest first. *)
val take : t -> int -> Types.tx list

(** [requeue t txs] queues [txs] again, in order, behind everything
    already waiting. *)
val requeue : t -> Types.tx list -> unit

(** [flush t ~batch_size ~timeout_us ~ready ~propose]: while [ready ()]
    holds, [propose] each full batch of [batch_size] transactions.
    A partial batch arms one timer (never two at a time); when it
    fires after [timeout_us], everything then queued is proposed if
    [ready ()] still holds, and the policy runs again. *)
val flush :
  t ->
  batch_size:int ->
  timeout_us:int ->
  ready:(unit -> bool) ->
  propose:(Types.tx list -> unit) ->
  unit
