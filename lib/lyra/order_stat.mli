(** Order statistics without a sort, for the quorum thresholds that
    are recomputed on every received status. *)

(** [kth_largest ~scratch a k] is the [k]-th largest entry of [a],
    counting from 0 (so [k = 0] is the maximum), as if [a] were sorted
    descending. [scratch] must be at least as long as [a]; it is
    overwritten, [a] is not unless it is [scratch] itself, which is
    allowed. Allocation-free; expected O(length a).
    @raise Invalid_argument if [k] is out of range. *)
val kth_largest : scratch:int array -> int array -> int -> int
