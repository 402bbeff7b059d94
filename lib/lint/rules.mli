(** The `lyra_lint` rule catalog.

    D-rules protect simulator determinism (the bit-for-bit
    reproducibility DESIGN.md promises for Lyra-vs-Pompē comparisons);
    the D1xx family is interprocedural (computed on the project-wide
    call graph, see {!Callgraph} and {!Taint}); P-rules protect
    protocol-message totality; S-rules protect protocol safety and
    interface hygiene. Each rule's rationale is in docs/LINT.md. *)

type id =
  | D001  (** unordered [Hashtbl] traversal in deterministic code *)
  | D002  (** wall clock / ambient entropy outside sanctioned modules *)
  | D003  (** polymorphic structural compare / hash *)
  | D101  (** deterministic-scope function reaches a nondeterministic source *)
  | D102  (** deterministic-scope function reaches toplevel mutable state *)
  | P001  (** wildcard arm in a protocol message/event dispatch *)
  | S001  (** [Obj.magic] / [Obj.repr] / [Obj.obj] *)
  | S002  (** lib/ module without a [.mli] *)
  | S003  (** [@warning "-..."] suppression in lib/ *)
  | S004  (** stale [lint.allow] entry or inline allow comment *)
  | S005  (** exported value with no user outside its module *)

(** Every rule, in catalog order. *)
val all : id list

val to_string : id -> string

val of_string : string -> id option
