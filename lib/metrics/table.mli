(** Plain-text tables for experiment reports (the rows the paper's
    figures plot). *)

(** [render ~header rows] aligns columns and returns the table as a
    string, with a separator under the header. *)
val render : header:string list -> string list list -> string

(** [print ~title ~header rows] renders to stdout with a title line. *)
val print : title:string -> header:string list -> string list list -> unit
