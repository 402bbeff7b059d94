(** Diagnostic output for {!Scanner} findings. *)

type format = Human | Json

val format_of_string : string -> format option

(** Structural schema of the report:
    [{tool, version, findings:[{rule,file,line,message,chain}],
      counts:[{rule,count}] (whole catalog, in order), total}]. *)
val schema : Metrics.Json.schema (* lint: allow S005 test_lint checks reports against it *)

val to_json : Finding.t list -> Metrics.Json.t (* lint: allow S005 test_lint checks reports against the schema *)

(** [print format out findings] writes the report to [out]. Human
    format is one ["file:line: [RULE] message"] per finding (plus
    indented call-chain lines for the interprocedural rules) and a
    summary line; JSON is the report object. *)
val print : format -> out_channel -> Finding.t list -> unit

(** [write_json_file ~file findings] writes the report, reads it back
    and validates it against {!schema} — so a CI artifact is
    well-formed or the linter itself fails ([Failure]). *)
val write_json_file : file:string -> Finding.t list -> unit
