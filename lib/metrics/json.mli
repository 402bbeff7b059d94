(** Minimal JSON tree: writer, reader and a structural schema checker.

    The bench harness's machine-readable output ([BENCH_*.json]) is
    written and self-validated through this module; it is deliberately
    dependency-free (no external JSON library in the toolchain) and
    deterministic — object keys render in construction order and float
    literals use a fixed format, so identical runs produce identical
    bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [num x] is [Float x], or [Null] when [x] is NaN/infinite (JSON has
    no representation for either). *)
val num : float -> t

(** Render; [indent] (default true) pretty-prints with 2-space
    indentation and a trailing newline. *)
val to_string : ?indent:bool -> t -> string

(** Parse a complete JSON document. *)
val of_string : string -> (t, string) result

(** [member k v] — field [k] of an object, [None] otherwise. *)
val member : string -> t -> t option

(** Structural schema: leaf types, nullability, homogeneous arrays and
    exact object key sets. *)
type schema =
  | Bool_s
  | Int_s
  | Num_s  (** [Int] or [Float] *)
  | Str_s
  | Nullable of schema
  | List_of of schema
  | Obj_of of (string * schema) list
      (** exactly these keys, in any order *)

(** [check schema v] — [Error] carries the path of the first mismatch. *)
val check : schema -> t -> (unit, string) result

(** {2 Typed descriptions}

    A ['a desc] knows both the schema of an ['a] and how to render one,
    so [schema d] and [value d x] derive from one definition and cannot
    drift. Objects are lists of fields, each carrying its key, the
    description of its value and the getter that reads it. *)

type 'a desc

type 'a field

val schema : 'a desc -> schema

val value : 'a desc -> 'a -> t

val int : int desc

(** [Num_s]; a NaN/infinite float renders as [Null] (see {!num}) and
    fails {!check} unless wrapped in {!nullable}. *)
val float : float desc

val str : string desc

val bool : bool desc

(** Same rendering, schema widened to accept [Null] (for floats that
    may be NaN). *)
val nullable : 'a desc -> 'a desc

(** [None] renders as [Null]. *)
val option : 'a desc -> 'a option desc

val list : 'a desc -> 'a list desc

val obj : 'a field list -> 'a desc

(** [field key d get] — key [key], value [value d (get x)]. *)
val field : string -> 'b desc -> ('a -> 'b) -> 'a field

(** [write_file ~file d x] writes [value d x] to [file], then reads it
    back, re-parses it and checks it against [schema d], so an
    artifact on disk is well-formed or the writer fails. Raises
    [Failure] naming the file otherwise. *)
val write_file : file:string -> 'a desc -> 'a -> unit
