(** Scope policy and allowlisting for {!Scanner}.

    Paths handled here are always repo-relative with ['/'] separators
    (e.g. ["lib/lyra/node.ml"]). *)

(** Top-level directories the linter walks, in scan order. *)
val scanned_dirs : string list

(** Top-level directories read only for the references they make into
    [lib/] (S005); no rule runs on them. *)
val reference_dirs : string list

(** Under a directory, or one of a few individual files, whose code
    must be bit-for-bit deterministic. *)
val is_deterministic : string -> bool

val in_lib : string -> bool

val in_test : string -> bool

(** Under one of {!reference_dirs}. *)
val reference_only : string -> bool

val in_totality_scope : string -> bool

(** How strictly a file is held to the determinism rules; see the
    implementation for the per-scope rule matrix. *)
type scope = Strict | Lib | Tool | Test

val scope_of_path : string -> scope

(** Files whose functions are D101 roots (must not transitively reach
    a nondeterministic source): [Strict] and [Tool] scopes. *)
val taint_root : string -> bool

(** Files whose functions are D102 roots (must not transitively reach
    module-toplevel mutable state): [Strict] scope only. *)
val global_root : string -> bool

(** Where the direct D001 traversal ban applies ([Strict] and [Tool]). *)
val unordered_traversal_banned : string -> bool

(** [lib/crypto/rng] is the sanctioned source of (seeded) randomness and
    exempt from the [Random] bans of {!Rules.D002} (and never seeds
    D101 taint). *)
val is_rng_module : string -> bool

(** {1 The [lint.allow] file}

    One entry per line: ["RULE path[:line]"]. ['#'] starts a comment.
    An entry without [:line] allows the rule anywhere in that file. *)

type entry = {
  rule : string;
  path : string;
  line : int option;
  lnum : int;  (** line of the entry inside lint.allow, for S004 *)
}

type allowlist = entry list

val parse : string -> (allowlist, string) result (* lint: allow S005 test_lint parses allowlists from strings *)

(** [load file] reads and parses [file]. *)
val load : string -> (allowlist, string) result

val entry_allows : entry -> rule:Rules.id -> path:string -> line:int -> bool

(** {1 Inline allows}

    A source comment containing ["lint: allow R1 R2 ..."] exempts
    findings on the directive's own line and on the line directly
    below it. *)

(** [inline_allows source] returns [(line, rule ids)] for every
    directive in [source]; lines are 1-based. *)
val inline_allows : string -> (int * string list) list

val inline_allowed : (int * string list) list -> rule:Rules.id -> line:int -> bool
