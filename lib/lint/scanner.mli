(** The static-analysis driver: parses [.ml] and [.mli] sources with
    [compiler-libs.common], runs the per-file Parsetree pass, and — for
    project scans — builds the whole-program {!Callgraph} and runs the
    interprocedural rules ({!Taint}, {!Totality}, {!Exports}). *)

type finding = Finding.t = {
  rule : Rules.id;
  file : string;  (** repo-relative, '/'-separated *)
  line : int;  (** 1-based *)
  message : string;
  chain : string list;  (** call chain for D101/D102, else empty *)
}

(** Raised on unreadable or syntactically invalid input. *)
exception Error of string

(** [scan_source ~rules ~path source] lints one compilation unit given
    as a string — the per-file rules only (interprocedural rules need a
    project). [path] determines scoping (see {!Config}) and is echoed
    in findings; inline ["lint: allow"] directives in [source] are
    honoured. File-level checks (S002) are not applied here. *)
(* lint: allow S005 test_lint runs its per-file fixtures through it *)
val scan_source : rules:Rules.id list -> path:string -> string -> finding list

(** [scan_project ~rules files] lints a whole program given as
    [(path, source)] pairs: per-file rules on each [.ml] plus the
    interprocedural D101/D102/P001 passes over the shared call graph,
    and S005 over the [.mli] files. Files under
    {!Config.reference_dirs} only contribute references to S005.

    [allowlist] and inline directives suppress findings *and* taint
    seeds; every allow consulted is tracked, and with {!Rules.S004}
    enabled each allow that suppressed nothing (restricted to rules
    enabled this run) becomes a finding — at its [lint.allow] line for
    file entries, at the directive line for inline allows. S004
    findings are themselves never allowlistable: the ratchet only
    tightens. [extra] merges externally computed findings (S002) into
    the stream before suppression. *)
(* lint: allow S005 test_lint runs its project fixtures through it *)
val scan_project :
  rules:Rules.id list ->
  ?allowlist:Config.allowlist ->
  ?extra:finding list ->
  (string * string) list ->
  finding list

(** [scan_root ~rules ~allowlist ~root] walks {!Config.scanned_dirs}
    and {!Config.reference_dirs} under [root], adds the S002 interface check, and runs
    {!scan_project} on the result. The result is sorted with
    {!Finding.compare}. *)
val scan_root :
  rules:Rules.id list -> allowlist:Config.allowlist -> root:string -> finding list
