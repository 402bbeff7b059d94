(** Byzantine quorum arithmetic for n > 3f systems, shared by the DBFT
    substrate and Lyra. *)

(** [max_faulty n] is the largest f with n > 3f, i.e. ⌊(n − 1) / 3⌋. *)
val max_faulty : int -> int

(** [quorum n] = n − f, the size of a Byzantine quorum. *)
val quorum : int -> int

(** [supermajority n] = 2f + 1, the validation threshold used by VVB
    and the threshold-signature scheme. *)
val supermajority : int -> int

(** The DBFT AUX wait (Alg. 3 lines 43–45) over counters: a binary value
    set is a mask, bit [v] standing for value [v], and [counts.(m)] is
    the number of distinct senders whose AUX set is [m] (length 4).

    [aux_set values] is the mask of an AUX list of binary values;
    duplicates collapse and [[]] is mask 0. *)
val aux_set : int list -> int

(** [aux_quorum counts ~need ~bin] keeps the senders whose sets lie
    inside [bin] (the local bin_values' mask); if at least [need]
    remain, it returns the mask of the union of their sets, else -1.
    Equal to {!aux_union} on the same senders. *)
val aux_quorum : int array -> need:int -> bin:int -> int

(** [aux_union ~need ~in_bin auxs], the list form of {!aux_quorum}:
    among the received AUX value-sets [auxs] (one per distinct sender),
    keep those fully contained in the local bin_values (predicate
    [in_bin]); if at least [need] senders remain, return the sorted
    union of their values. *)
(* lint: allow S005 reference model of aux_quorum, kept for test_dbft *)
val aux_union : need:int -> in_bin:(int -> bool) -> int list list -> int list option
