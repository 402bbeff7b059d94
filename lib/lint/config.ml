(* Scope policy and the two allowlisting mechanisms (lint.allow file,
   inline "lint: allow RULE" comments). Paths are always repo-relative
   with '/' separators, e.g. "lib/lyra/node.ml". *)

let scanned_dirs = [ "bench"; "bin"; "examples"; "lib"; "test" ]

(* Read only for the references they make into lib/ (S005): no rule
   runs on these files. perfbench/ is the repository benchmark. *)
let reference_dirs = [ "perfbench" ]

let deterministic_dirs =
  [ "lib/app"; "lib/dagorder"; "lib/dbft"; "lib/explore"; "lib/fairness";
    "lib/harness"; "lib/hotstuff"; "lib/lyra"; "lib/pompe"; "lib/protocol";
    "lib/sim"; "lib/workload" ]

(* Individual files held to Strict scope when their directory is not.
   lib/crypto as a whole cannot be Strict (field.ml and rng.ml *are*
   the repo's randomness and bignum kernels, full of bare (=) on
   ints), but verify_cache sits on every protocol's hot path and its
   hit/miss behavior feeds golden-checked message counts, so it gets
   the full determinism treatment file by file. *)
let deterministic_files =
  [ "lib/crypto/verify_cache.ml"; "lib/crypto/verify_cache.mli" ]

(* P001 (handler totality) applies where protocol messages are
   dispatched: the protocol implementations and their adapters. *)
let totality_dirs =
  [ "lib/dagorder"; "lib/dbft"; "lib/hotstuff"; "lib/lyra"; "lib/pompe";
    "lib/protocol" ]

let under dir path = String.length path > String.length dir && String.starts_with ~prefix:(dir ^ "/") path

let is_deterministic path =
  List.exists (fun d -> under d path) deterministic_dirs
  || List.exists (String.equal path) deterministic_files

let in_lib path = under "lib" path

let in_test path = under "test" path

let reference_only path = List.exists (fun d -> under d path) reference_dirs

let in_totality_scope path = List.exists (fun d -> under d path) totality_dirs

(* How strictly a file is held to the determinism rules:
   - [Strict]: the deterministic dirs — everything applies, including
     bare (=) bans and the interprocedural D102 global-state reach.
   - [Lib]: the rest of lib/ — interface hygiene and the universal
     bans, but unordered traversal and bare (=) are locally legal
     (callers in Strict scope still see them through D101).
   - [Tool]: bin/ and bench/ — their stdout and JSON artifacts are
     golden-checked, so unordered traversal (D001) and the
     interprocedural D101 reach apply, but not the lib-only hygiene
     rules or the bare (=) ban.
   - [Test]: test/ and examples/ — only the universal bans (D002
     ambient entropy, S001 Obj). *)
type scope = Strict | Lib | Tool | Test

let scope_of_path path =
  if is_deterministic path then Strict
  else if in_lib path then Lib
  else if under "bin" path || under "bench" path then Tool
  else Test

(* Scopes whose functions must stay free of interprocedural
   nondeterminism taint (D101 roots). *)
let taint_root path =
  match scope_of_path path with Strict | Tool -> true | Lib | Test -> false

(* Scopes whose functions must not reach module-toplevel mutable state
   (D102 roots). bin/bench keep their CLI-flag refs, so only the
   deterministic dirs are held to this. *)
let global_root path = scope_of_path path = Strict

(* D001 applies where traversal order can leak into protocol decisions
   (Strict) or golden-checked artifacts (Tool). *)
let unordered_traversal_banned path =
  match scope_of_path path with Strict | Tool -> true | Lib | Test -> false

(* The seeded generator itself is the one module allowed to *define*
   randomness; everything else must thread a Crypto.Rng.t through. *)
let is_rng_module path = path = "lib/crypto/rng.ml" || path = "lib/crypto/rng.mli"

(* ------------------------------------------------------------------ *)
(* lint.allow file: one entry per line, "RULE path[:line]", '#' starts
   a comment. An entry without :line allows the rule anywhere in the
   file.                                                               *)
(* ------------------------------------------------------------------ *)

type entry = { rule : string; path : string; line : int option; lnum : int }

type allowlist = entry list

let parse content =
  let err lnum msg = Error (Printf.sprintf "lint.allow:%d: %s" lnum msg) in
  let parse_line lnum acc line =
    match acc with
    | Error _ -> acc
    | Ok entries -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "") with
        | [] -> Ok entries
        | [ rule; target ] -> (
            if Rules.of_string rule = None then err lnum ("unknown rule id " ^ rule)
            else
              match String.index_opt target ':' with
              | None -> Ok ({ rule; path = target; line = None; lnum } :: entries)
              | Some i -> (
                  let path = String.sub target 0 i in
                  let ln = String.sub target (i + 1) (String.length target - i - 1) in
                  match int_of_string_opt ln with
                  | Some n when n > 0 ->
                      Ok ({ rule; path; line = Some n; lnum } :: entries)
                  | _ -> err lnum ("bad line number " ^ ln)))
        | _ -> err lnum "expected \"RULE path[:line]\"")
  in
  let lines = String.split_on_char '\n' content in
  match List.fold_left (fun (lnum, acc) l -> (lnum + 1, parse_line lnum acc l)) (1, Ok []) lines with
  | _, Ok entries -> Ok (List.rev entries)
  | _, (Error _ as e) -> e

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | content -> parse content
  | exception Sys_error msg -> Error msg

let entry_allows e ~rule ~path ~line =
  e.rule = Rules.to_string rule && e.path = path
  && match e.line with None -> true | Some n -> n = line

(* ------------------------------------------------------------------ *)
(* Inline allows: a comment containing "lint: allow R1 R2 ..." exempts
   findings on the directive's own line and the line directly below,
   so both trailing comments and a comment line above the offending
   expression work.                                                    *)
(* ------------------------------------------------------------------ *)

let directive = "lint: allow"

let rule_ids_after line i =
  let n = String.length line in
  let is_id_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  let rec tokens i acc =
    if i >= n then acc
    else if line.[i] = ' ' then tokens (i + 1) acc
    else
      let j = ref i in
      while !j < n && is_id_char line.[!j] do incr j done;
      if !j = i then acc
      else
        let tok = String.sub line i (!j - i) in
        match Rules.of_string tok with
        | Some _ -> tokens !j (tok :: acc)
        | None -> acc
  in
  List.rev (tokens i [])

let substring_index hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let inline_allows source =
  let lines = String.split_on_char '\n' source in
  List.concat
    (List.mapi
       (fun idx line ->
         match substring_index line directive with
         | None -> []
         | Some i -> (
             match rule_ids_after line (i + String.length directive) with
             | [] -> []
             | rules -> [ (idx + 1, rules) ]))
       lines)

let inline_allowed allows_by_line ~rule ~line =
  List.exists
    (fun (l, rules) -> (line = l || line = l + 1) && List.mem (Rules.to_string rule) rules)
    allows_by_line
