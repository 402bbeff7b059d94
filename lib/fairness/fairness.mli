(** Receive-order fairness metrics ("SoK: Consensus for Fair Message
    Ordering", PAPERS.md).

    Every metric is a pure function of two things the harness already
    produces: the decided commit log (batch keys, decided order) and
    per-observer receive logs (the order in which each honest node
    first saw each batch, from the protocol runtime's [on_observe]
    tap). Nothing here touches the simulator, so the same code scores
    a live {!Harness.Scenario} run and a synthetic QCheck ordering. *)

(** Violations of γ-batch-order fairness at one threshold: a decided
    pair (a before b) is [mandated] when a γ-fraction strict majority
    of the observers that saw both agrees on one direction, and a
    [violation] when that agreed direction is the opposite of the
    decided one (Kelkar et al.'s batch-order fairness, as surveyed in
    the SoK §4). [violations] is monotone non-increasing in [gamma]. *)
type gamma_row = { gamma : float; mandated : int; violations : int }

(** Positional advantage of one sender: mean over its decided batches
    of (median normalized receive position across observers − normalized
    decided position). Positive means the sender's batches are decided
    earlier than the network received them — the signature of a
    front-running insider. *)
type sender_row = { sender : int; batches : int; advantage : float }

type report = {
  decided : int;  (** decided keys scored *)
  observers : int;  (** receive logs consulted *)
  pairs : int;  (** comparable (decided key, decided key) pairs, summed
                    over observers *)
  inversions : int;
      (** pairs whose receive order contradicts the decided order
          (Kendall-tau distance between each observer's receive order
          and the decided order, summed) *)
  inversion_rate : float;  (** inversions / pairs; 0 when no pairs *)
  gamma_rows : gamma_row list;
  senders : sender_row list;  (** ascending sender id *)
  frontrun_success : float option;
      (** fraction of MEV-searcher transactions that committed
          (PR 9 searcher flow); [None] without a searcher workload *)
}

(** [sender_of_key "3/17"] is [3]; [-1] when the key does not look like
    a [proposer/index] batch key. *)
val sender_of_key : string -> int

(** [count_inversions a] is the number of index pairs [i < j] with
    [a.(i) > a.(j)] (merge-sort based, O(k log k)). *)
val count_inversions : int array -> int

(** [inversions ~decided ~received] is [(inversions, pairs)] for one
    observer: [received] keys are projected onto their decided ranks
    (unknown and repeated keys dropped) and inversions counted. A key
    repeated in [decided] keeps the rank of its first occurrence. *)
val inversions : decided:string list -> received:string list -> int * int

(** [score ~decided ~received ()] computes the full report.

    [received] carries one [(key, first-seen µs)] log per observer in
    arrival order; only the order is used. The γ-batch-order counts
    cover γ = 0.55, 0.67, 0.75, 0.9 and 1.0, over pairs at most 64
    decided positions apart (the Kendall inversion count is always
    exact over all pairs), keeping the pass O(decided · 64 · observers). *)
val score :
  ?frontrun_success:float ->
  decided:string list ->
  received:(string * int) list array ->
  unit ->
  report

val pp : Format.formatter -> report -> unit

(** JSON form (and schema) of a report, for bench artifacts. *)
val json : report Metrics.Json.desc
