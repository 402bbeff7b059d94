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
  | Tagged of string * (string * schema) list
      (** [Tagged (key, cases)]: an object whose string member [key]
          names one of [cases]; the object must match that case's
          schema (which includes [key]) *)

(** [check schema v] — [Error] carries the path of the first mismatch. *)
val check : schema -> t -> (unit, string) result

(** {2 Typed descriptions}

    A ['a desc] knows the schema of an ['a], how to render one and how
    to read one back, so [schema d], [value d x] and [read d v] derive
    from one definition and cannot drift. Write-only objects are lists
    of fields, each carrying its key, the description of its value and
    the getter that reads it; readable objects are built with
    {!record}. *)

type 'a desc

type 'a field

val schema : 'a desc -> schema

val value : 'a desc -> 'a -> t

(** [read d v] — the ['a] that [v] describes. [Error] names the path of
    the first problem, e.g. [$.faults.losses[0].from_us: expected int];
    it never raises. *)
val read : 'a desc -> t -> ('a, string) result

val int : int desc

(** [Num_s]; reads an [Int] or a [Float]. A NaN/infinite float renders
    as [Null] (see {!num}) and fails {!check} unless wrapped in
    {!nullable}. *)
val float : float desc

val str : string desc

val bool : bool desc

(** Same rendering, schema widened to accept [Null] (for floats that
    may be NaN); a nullable float reads [Null] back as NaN. *)
val nullable : 'a desc -> 'a desc

(** [None] renders as [Null]. *)
val option : 'a desc -> 'a option desc

val list : 'a desc -> 'a list desc

(** A write-only object: {!read} on it always fails. *)
val obj : 'a field list -> 'a desc

(** [field key d get] — key [key], value [value d (get x)]. *)
val field : string -> 'b desc -> ('a -> 'b) -> 'a field

(** {3 Records}

    A readable object is a constructor fed one member at a time:
    {[
      record (fun name size -> { name; size })
      |> mem "name" str (fun r -> r.name)
      |> mem "size" ~default:0 int (fun r -> r.size)
      |> seal
    ]}
    ['r] is the record and ['k] what remains of the constructor; each
    {!mem} consumes one argument, and {!seal} needs them all consumed.
    Members render in declaration order; reading ignores unknown keys. *)

type ('r, 'k) record

val record : 'k -> ('r, 'k) record

(** [mem ?default key d get] — member [key], rendered as
    [value d (get x)] and read with [d]. A missing [key] reads as
    [default] (for members older artifacts lack), or fails without
    one. Rendering always writes the member. *)
val mem :
  ?default:'b -> string -> 'b desc -> ('r -> 'b) -> ('r, 'b -> 'k) record -> ('r, 'k) record

val seal : ('r, 'r) record -> 'r desc

(** [tagged key tag cases] — a variant as an object whose string member
    [key] names its case. [tag x] is the name of [x]'s case, and
    [cases] maps each name to a {!seal}ed record that renders and reads
    that case's other members. [x] renders with [key] first; reading
    dispatches on [key] and fails on an unknown name. *)
val tagged : string -> ('a -> string) -> (string * 'a desc) list -> 'a desc

(** [conv write of_a d] — a ['b] stored as an ['a]: it renders as
    [value d (write x)] and reads through [of_a], whose [Error] fails
    the read. Use it for representation changes ([int64] as [int]) and
    for load-time checks ([conv Fun.id check d]). *)
val conv : ('b -> 'a) -> ('a -> ('b, string) result) -> 'a desc -> 'b desc

(** [write_file ~file d x] writes [value d x] to [file], then reads it
    back, re-parses it and checks it against [schema d], so an
    artifact on disk is well-formed or the writer fails. Raises
    [Failure] naming the file otherwise. *)
val write_file : file:string -> 'a desc -> 'a -> unit
