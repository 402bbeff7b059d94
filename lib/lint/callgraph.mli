(** Whole-program definition table and call graph, built from the
    Parsetree only. Resolution of [Module.fn] paths leans on the repo's
    conventions (every [lib/<dir>] is a wrapped dune library of the
    same name; no toplevel [open]s) and under-approximates: an
    unresolvable reference contributes no edge. *)

(** {1 Banned-identifier tables} shared with the per-file pass. *)

val hashtbl_instances : Parsetree.structure list -> string list
(** Names of the modules bound to [Hashtbl.Make (...)] or
    [Hashtbl.MakeSeeded (...)] in the given structures, nested modules
    included; sorted, without duplicates. *)

val unordered_traversal : tables:string list -> Longident.t -> (string * string) option
(** [unordered_traversal ~tables lid] is [Some (m, f)] when [lid] is
    [Hashtbl.f], or [P.m.f] / [m.f] with [m] in [tables], and [f] is
    a [Hashtbl] entry point with unspecified visit order ([iter],
    [fold], [to_seq*]). Instances are matched by name. *)

val d002_clocks : (string * string) list
(** Host time sources, as [(module, function)]. *)

val d002_random : string list
(** Ambient-state [Random] functions ([Random.State] stays legal). *)

(** {1 Graph} *)

type source_kind = Unordered_traversal | Wall_clock | Ambient_entropy

val base_rule : source_kind -> Rules.id
(** The intra-file rule whose allows suppress a source of this kind. *)

type source = { s_kind : source_kind; s_what : string; s_line : int }

type global = { g_path : string; g_name : string; g_line : int; g_kind : string }

type def = {
  d_path : string;
  d_name : string;  (** dotted within the unit, e.g. ["Closed.create"] *)
  d_line : int;
  mutable d_sources : source list;
  mutable d_globals : (global * int) list;  (** with reference-site line *)
  mutable d_calls : (def * int) list;  (** with call-site line *)
}

val def_key : def -> string

type tydecl = {
  ty_ctors : string list;  (** constructor names if a variant, else [[]] *)
  ty_refs : Longident.t list;  (** type constructors the decl references *)
}

type unit_info = {
  u_path : string;
  u_lib : string option;
  u_module : string;
  u_structure : Parsetree.structure;
  u_defs : (string, def) Hashtbl.t;
  u_globals : (string, global) Hashtbl.t;
  u_aliases : (string, string list) Hashtbl.t;
  u_types : (string, tydecl) Hashtbl.t;
  mutable u_def_order : def list;
}

type t

val build : (string * Parsetree.structure) list -> t
(** [build [(path, ast); ...]] indexes every compilation unit and
    resolves call edges, global touches and direct nondeterminism
    sources for each definition. *)

val units : t -> unit_info list
(** Sorted by path. *)

val defs : t -> def list
(** All definitions, grouped by unit (units sorted by path, defs in
    declaration order) — a deterministic iteration order. *)

val resolve : t -> unit_info -> lookup:(unit_info -> string -> 'a option) -> string list -> 'a option
(** [resolve t u ~lookup parts] resolves a flattened path as seen from
    inside [u]: [lookup u' name] searches one unit for a dotted [name],
    and the resolver walks from [u] to same-library siblings, dune
    library wrappers ([Lib.Module.name]) and module aliases. *)

val resolve_type : t -> unit_info -> string list -> (unit_info * tydecl) option
(** Resolve a type-constructor path to its declaring unit and decl. *)

val flatten : Longident.t -> string list option
(** [None] on functor applications. *)
