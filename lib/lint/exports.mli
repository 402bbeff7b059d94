(** S005: exported values with no user outside their module. *)

val analyze : Callgraph.t -> (string * Parsetree.signature) list -> Finding.t list
(** [analyze cg interfaces] reports every [val] of a [lib/] interface
    in [interfaces] (given as [(path, signature)]) that no unit of [cg]
    outside [test/] and the value's own compilation unit references. A
    reference is a resolved value path, or any other mention of an
    enclosing module ([open], [include], a functor argument, a packed
    module), which counts as a use of every value in it. *)
