(** A node's append-only output log, shared by every protocol node
    (Lyra, Pompē, HotStuff, DAG). Each entry is a payload (a batch, or
    a DAG delivery), its decided seq and its output time (simulated
    µs), kept in three flat arrays that grow by doubling: three words
    an entry plus unused capacity, where a list of records took seven.
    A reader's record is built only when an entry is read, by the
    function the reader passes. *)

type 'a t

(** An empty log; it allocates nothing until the first {!append}. *)
val create : unit -> 'a t

val length : 'a t -> int

(** [append t x ~seq ~at] adds entry [length t]. *)
val append : 'a t -> 'a -> seq:int -> at:int -> unit

(** [slice t ~from ~len f] maps [f] over entries [from] to
    [from + len - 1], oldest first, stopping at the end of the log: it
    is empty when [from >= length t], and never overflows, even for
    [from] near [max_int]. Raises [Invalid_argument] when [from] or
    [len] is negative. *)
val slice : 'a t -> from:int -> len:int -> ('a -> seq:int -> at:int -> 'b) -> 'b list

(** [to_list t f] maps [f] over every entry, oldest first. *)
val to_list : 'a t -> ('a -> seq:int -> at:int -> 'b) -> 'b list
