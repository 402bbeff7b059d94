(** Chained HotStuff (Yin et al. [30]) — the leader-based BFT consensus
    underlying the Pompē baseline (§VI).

    One block is proposed per view by the view's round-robin leader;
    replicas vote to the *next* leader; a block commits when it heads a
    three-chain of consecutive, parent-linked certified blocks. The
    leader is both a CPU hotspot (it verifies n votes per block) and a
    bandwidth hotspot (it broadcasts every block to n replicas) — the
    bottleneck that Fig. 3 of the Lyra paper shows Pompē inheriting.

    The module is generic in the command type carried by blocks; Pompē
    instantiates it with sequenced-batch references. *)

(** A quorum certificate: the block, its height and the replicas whose
    votes formed it. *)
type qc = { q_block : string; q_height : int; voters : Dbft.Senders.t }

type 'cmd block = {
  b_id : string;
  height : int;
  parent : string;
  justify : qc;
  cmds : 'cmd list;
  proposer : int;
}

type 'cmd msg =
  | Proposal of 'cmd block
  | Vote of { block_id : string; height : int }
  | New_view of { view : int; qc : qc }
  | Catchup_req of { missing : string; have : int }
      (** pull a lost block (and its uncommitted ancestry above
          [have]) when a three-chain evaluation meets it missing. It
          goes to a replica that certified the block: first the
          proposer of the block that references it, then, each time
          the request expires unanswered, the next voter of that
          block's QC; never to the requester itself. *)
  | Catchup_resp of { blocks : 'cmd block list }  (** oldest first *)

(** Sizes for the NIC model: [cmd_size] gives the wire size of one
    command inside a proposal. *)
val msg_size : cmd_size:('cmd -> int) -> 'cmd msg -> int

(** Transport abstraction: HotStuff does not talk to the network
    directly, so a host protocol (Pompē) can tunnel its messages. Use
    {!network_transport} to run standalone on a {!Sim.Network}. *)
type 'cmd transport = {
  tr_n : int;
  tr_broadcast : 'cmd msg -> unit;
  tr_send : dst:int -> 'cmd msg -> unit;
  tr_schedule : delay_us:int -> (unit -> unit) -> unit;
}

type 'cmd t

(** [create transport ~id ~delta_us ~block_capacity ~cmd_id ~cmd_key
    ~on_commit ()] — [cmd_key] names a command in the {!Cmd_pool} and
    deduplicates commands across leaders: distinct commands need
    distinct keys, and equal keys mean the same command. [cmd_id] is
    read only when this replica leads, to derive a block id from the
    ids of the commands it proposes. [on_commit] fires once per
    committed block, in chain order, with already-committed commands
    filtered out. Incoming messages must be fed to {!handle}. *)
val create :
  'cmd transport ->
  id:int ->
  delta_us:int ->
  block_capacity:int ->
  cmd_id:('cmd -> string) ->
  cmd_key:('cmd -> int) ->
  on_commit:(height:int -> 'cmd list -> unit) ->
  unit ->
  'cmd t

(** Feed one incoming message. *)
val handle : 'cmd t -> src:int -> 'cmd msg -> unit

(** [network_transport net ~id] adapts a simulated network endpoint
    (the caller must still register a handler that calls {!handle}). *)
(* lint: allow S005 test_hotstuff wires bare replicas onto a network *)
val network_transport : 'cmd msg Sim.Network.t -> id:int -> 'cmd transport

(** Launch view 1 (every replica must be started). *)
val start : 'cmd t -> unit

(** [submit t cmd] queues a command for inclusion when this replica
    leads. Commands already seen (by key) are dropped. *)
val submit : 'cmd t -> 'cmd -> unit

val view : 'cmd t -> int (* lint: allow S005 replica state probe for test_hotstuff *)

val committed_height : 'cmd t -> int

(** Number of blocks this replica proposed. *)
val blocks_proposed : 'cmd t -> int (* lint: allow S005 replica state probe for test_hotstuff *)

val pending_count : 'cmd t -> int (* lint: allow S005 bounded-state probe for test_hotstuff *)
