(* Diagnostic output. The machine-readable form is a single report
   object (not a bare findings array) built on Metrics.Json, so the CI
   artifact is schema-checked by the same machinery as the bench JSON:
   {tool, version, findings:[{rule,file,line,message,chain}],
    counts:[{rule,count} for the whole catalog], total}. *)

type format = Human | Json

let format_of_string = function
  | "human" -> Some Human
  | "json" -> Some Json
  | _ -> None

let version = 1

let desc =
  let open Metrics.Json in
  let count findings rule =
    (rule, List.length (List.filter (fun (f : Finding.t) -> f.rule = rule) findings))
  in
  obj
    [
      field "tool" str (fun _ -> "lyra_lint");
      field "version" int (fun _ -> version);
      field "findings"
        (list
           (obj
              [
                field "rule" str (fun (f : Finding.t) -> Rules.to_string f.rule);
                field "file" str (fun (f : Finding.t) -> f.file);
                field "line" int (fun (f : Finding.t) -> f.line);
                field "message" str (fun (f : Finding.t) -> f.message);
                field "chain" (list str) (fun (f : Finding.t) -> f.chain);
              ]))
        Fun.id;
      field "counts"
        (list
           (obj
              [
                field "rule" str (fun (rule, _) -> Rules.to_string rule);
                field "count" int snd;
              ]))
        (fun findings -> List.map (count findings) Rules.all);
      field "total" int List.length;
    ]

let schema = Metrics.Json.schema desc

let to_json findings = Metrics.Json.value desc findings

let print_human out (findings : Finding.t list) =
  List.iter
    (fun (f : Finding.t) ->
      Printf.fprintf out "%s:%d: [%s] %s\n" f.file f.line (Rules.to_string f.rule) f.message;
      List.iteri
        (fun i hop ->
          Printf.fprintf out "    %s %s\n" (if i = 0 then "chain:" else "    ->") hop)
        f.chain)
    findings;
  match List.length findings with
  | 0 -> Printf.fprintf out "lyra_lint: no findings\n"
  | n -> Printf.fprintf out "lyra_lint: %d finding%s\n" n (if n = 1 then "" else "s")

let print format out findings =
  match format with
  | Human -> print_human out findings
  | Json -> output_string out (Metrics.Json.to_string (to_json findings))

(* The artifact a CI job picks up is guaranteed well-formed or the
   linter itself fails. *)
let write_json_file ~file findings = Metrics.Json.write_file ~file desc findings
