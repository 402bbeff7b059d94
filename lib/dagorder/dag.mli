(** The pure DAG core of the leaderless fair-ordering baseline
    ("MEV Protection on a DAG", Malkhi & Szalachowski, PAPERS.md; see
    docs/FAIRNESS.md §adapter).

    Vertices arrive in any order (the network layer buffers until the
    causal frontier is complete); everything decided here — wave
    commits, anchor back-walks, and the receive-report linearization —
    is a deterministic function of the set of vertices inserted, never
    of their insertion order. QCheck drives this module directly. *)

(** One round-[round] vertex by [creator]. [refs] are the creators of
    the round-[round−1] vertices it links (ignored at round 0); [weak]
    are DAG-Rider weak links — (round, creator) of older vertices
    (round < [round−1]) the creator holds but its history does not yet
    reach. Wave commits follow [refs] only; committed histories follow
    both, so a replica whose vertices always arrive after the first
    n−f of their round still gets its batches and receive reports
    counted. [batches] are the payload batches the creator embeds; [reports]
    are [(batch key, creator-local first-receive µs)] pairs — the
    creator's receive-order testimony the linearizer aggregates. *)
type vertex = {
  round : int;
  creator : int;
  refs : int list;
  weak : (int * int) list;
  batches : Lyra.Types.batch list;
  reports : (string * int) list;
}

(** A linearized batch: emitted when a committed anchor's causal
    history first contains both the embedding vertex and a quorum of
    receive reports, ordered by (embed round, median report µs, key). *)
type delivery = {
  batch : Lyra.Types.batch;
  embed_round : int;
  anchor_round : int;  (** the committing anchor's round *)
  median_receive_us : int;
}

(** Canonical "proposer/index" key of a batch (the commit-log key the
    harness compares across protocols). *)
val key_of_batch : Lyra.Types.batch -> string

type t

val create : n:int -> f:int -> unit -> t

(** [add t v] inserts [v].

    - [`Missing parents]: some referenced vertices (strong or weak)
      are absent; nothing is mutated — re-add after they arrive.
    - [`Duplicate]: a vertex with [v]'s (round, creator) is already
      present (first copy wins).
    - [`Added ds]: inserted; [ds] are the deliveries this insertion
      unlocked (possibly across several waves), in final linear order.

    Raises [Invalid_argument] on malformed vertices (out-of-range
    creator, negative round, refs at round 0, weak links not below
    round [v.round−1]). *)
val add :
  t -> vertex -> [ `Added of delivery list | `Duplicate | `Missing of (int * int) list ]

val mem : t -> round:int -> creator:int -> bool

val find : t -> round:int -> creator:int -> vertex option

(** Creators with a vertex at [round], ascending. *)
val round_creators : t -> int -> int list

(** Highest round holding ≥ quorum vertices; −1 before the first. *)
val max_quorum_round : t -> int

(** Last committed wave; −1 initially. *)
val last_committed_wave : t -> int (* lint: allow S005 DAG state probe for test_dagorder *)

(** All deliveries so far, oldest first — the node's committed log. *)
val delivered : t -> delivery list (* lint: allow S005 DAG state probe for test_dagorder *)

val delivered_count : t -> int (* lint: allow S005 DAG state probe for test_dagorder *)

(** Batches embedded in committed history still waiting for a quorum
    of receive reports. *)
val deferred : t -> int (* lint: allow S005 DAG state probe for test_dagorder *)
