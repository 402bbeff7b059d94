(* The analysis driver: parse each .ml with compiler-libs, run the
   per-file Parsetree pass, then (for project scans) build the
   whole-program call graph and run the interprocedural rules.

   Suppression is applied uniformly *after* finding generation: every
   raw finding (and every taint seed) is checked against the file's
   inline "lint: allow" directives and the lint.allow file, and each
   consulted allow is recorded so S004 can flag the stale ones. *)

type finding = Finding.t = {
  rule : Rules.id;
  file : string;
  line : int;
  message : string;
  chain : string list;
}

exception Error of string

(* ------------------------------------------------------------------ *)
(* Per-file pass.                                                      *)
(* ------------------------------------------------------------------ *)

let parse parser ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match parser lexbuf with
  | ast -> ast
  | exception _ ->
      let line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum in
      raise (Error (Printf.sprintf "%s:%d: syntax error while parsing for lint" path line))

(* Structural ops that inspect runtime representation. *)
let d003_stdlib = [ "compare"; "="; "<>" ]

let s001_obj = [ "magic"; "repr"; "obj" ]

(* A module that defines its own [compare] (e.g. Crypto.Field) may use
   the name unqualified; D003 targets the Stdlib fallback. *)
let defines_compare structure =
  let binds_compare vb =
    match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { txt = "compare"; _ } -> true
    | _ -> false
  in
  List.exists
    (fun item ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) -> List.exists binds_compare vbs
      | Parsetree.Pstr_primitive vd -> vd.Parsetree.pval_name.Asttypes.txt = "compare"
      | _ -> false)
    structure

(* Raw per-file findings: no inline/allowlist filtering here — the
   caller owns suppression (and its bookkeeping). *)
let file_findings ~rules ~tables ~path structure =
  let traversal_banned = Config.unordered_traversal_banned path in
  let deterministic = Config.is_deterministic path in
  let in_lib = Config.in_lib path in
  let local_compare = defines_compare structure in
  let findings = ref [] in
  let emit rule loc message =
    if List.mem rule rules then
      let line = loc.Location.loc_start.Lexing.pos_lnum in
      findings := Finding.make rule ~file:path ~line message :: !findings
  in
  let check_ident lid loc =
    (if traversal_banned then
       match Callgraph.unordered_traversal ~tables lid with
       | Some ("Hashtbl", f) ->
           emit Rules.D001 loc
             (Printf.sprintf
                "Hashtbl.%s visits bindings in unspecified order; use Sim.Det.sorted_bindings (or collect, sort by key, then fold)"
                f)
       | Some (m, f) ->
           emit Rules.D001 loc
             (Printf.sprintf
                "%s.%s visits bindings in unspecified order (%s is a Hashtbl.Make instance); keep an ordered Map/Set alongside, or collect, sort by key, then fold"
                m f m)
       | None -> ());
    match lid with
    | Longident.Ldot (Longident.Lident m, f) when List.mem (m, f) Callgraph.d002_clocks ->
        emit Rules.D002 loc
          (Printf.sprintf "%s.%s reads the host wall clock; simulated time is Sim.Engine.now" m f)
    | Longident.Ldot (Longident.Lident "Random", f)
      when List.mem f Callgraph.d002_random && not (Config.is_rng_module path) ->
        emit Rules.D002 loc
          (Printf.sprintf "Random.%s draws from the ambient global generator; thread a seeded Crypto.Rng.t instead" f)
    | Longident.Ldot (Longident.Lident "Hashtbl", ("hash" | "hash_param")) when in_lib ->
        emit Rules.D003 loc "Hashtbl.hash is representation-dependent; hash a canonical key instead"
    | Longident.Ldot (Longident.Lident "Stdlib", f) when in_lib && List.mem f d003_stdlib ->
        emit Rules.D003 loc
          (Printf.sprintf "Stdlib.(%s) is polymorphic; use the type-specific comparison" f)
    | Longident.Lident "compare" when in_lib && not local_compare ->
        emit Rules.D003 loc
          "unqualified polymorphic compare; use Int.compare / Float.compare / String.compare or the type's own compare"
    | Longident.Ldot (Longident.Lident "Obj", f) when List.mem f s001_obj ->
        emit Rules.S001 loc (Printf.sprintf "Obj.%s defeats the type system" f)
    | _ -> ()
  in
  (* Bare (=) / (<>) in deterministic protocol code: polymorphic
     equality walks the runtime representation, so on mutable or
     abstract types it can diverge (or raise on functional values).
     A comparison against a syntactic immediate — literal constant or
     nullary constructor (3, 'a', None, [], true) — is unambiguous and
     stays legal. *)
  let immediate_operand e =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_constant _ -> true
    | Parsetree.Pexp_construct (_, None) -> true
    | _ -> false
  in
  let check_apply fn args =
    match fn.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); loc }
      when deterministic
           && not (List.exists (fun (_, a) -> immediate_operand a) args) ->
        emit Rules.D003 loc
          (Printf.sprintf
             "bare (%s) is polymorphic; use String.equal / Int.equal / the type's own equality (comparisons against literals are exempt)"
             op)
    | _ -> ()
  in
  let check_attribute (attr : Parsetree.attribute) =
    match attr.Parsetree.attr_name.Asttypes.txt with
    | ("warning" | "ocaml.warning") when in_lib ->
        emit Rules.S003 attr.Parsetree.attr_name.Asttypes.loc
          "warning suppression hides diagnostics that catch protocol bugs; fix the code instead"
    | _ -> ()
  in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; loc } -> check_ident txt loc
          | Parsetree.Pexp_apply (fn, args) -> check_apply fn args
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      attribute =
        (fun it a ->
          check_attribute a;
          Ast_iterator.default_iterator.attribute it a);
    }
  in
  iterator.structure iterator structure;
  List.rev !findings

let scan_source ~rules ~path source =
  let structure = parse Parse.implementation ~path source in
  let inline = Config.inline_allows source in
  file_findings ~rules ~tables:(Callgraph.hashtbl_instances [ structure ]) ~path structure
  |> List.filter (fun (f : finding) ->
         not (Config.inline_allowed inline ~rule:f.rule ~line:f.line))
  |> List.sort Finding.compare

(* ------------------------------------------------------------------ *)
(* Project-wide pass.                                                  *)
(* ------------------------------------------------------------------ *)

let scan_project ~rules ?(allowlist = []) ?(extra = []) files =
  let impls, intfs = List.partition (fun (path, _) -> Filename.check_suffix path ".ml") files in
  let parsed = List.map (fun (path, source) -> (path, parse Parse.implementation ~path source)) impls in
  let linted = List.filter (fun (path, _) -> not (Config.reference_only path)) parsed in
  (* Per-file inline directives, and usage tracking for S004. *)
  let sources = List.filter (fun (path, _) -> not (Config.reference_only path)) files in
  let inline_tbl = Hashtbl.create 64 in
  List.iter
    (fun (path, source) -> Hashtbl.replace inline_tbl path (Config.inline_allows source))
    sources;
  let inline_used = Hashtbl.create 16 in
  let entries = Array.of_list allowlist in
  let entry_used = Array.make (Array.length entries) false in
  let suppressed ~rule ~path ~line =
    let directives = try Hashtbl.find inline_tbl path with Not_found -> [] in
    let rs = Rules.to_string rule in
    let inline_hit =
      List.find_opt
        (fun (l, rulenames) -> (line = l || line = l + 1) && List.mem rs rulenames)
        directives
    in
    match inline_hit with
    | Some (l, _) ->
        Hashtbl.replace inline_used (path, l) ();
        true
    | None ->
        let n = Array.length entries in
        let rec go i =
          if i >= n then false
          else if Config.entry_allows entries.(i) ~rule ~path ~line then begin
            entry_used.(i) <- true;
            true
          end
          else go (i + 1)
        in
        go 0
  in
  (* Per-file rules + externally computed findings (S002). A table
     instance defined in one file is checked wherever it is walked. *)
  let tables = Callgraph.hashtbl_instances (List.map snd linted) in
  let base =
    extra
    @ List.concat_map
        (fun (path, structure) -> file_findings ~rules ~tables ~path structure)
        linted
  in
  (* Interprocedural rules over the shared call graph. *)
  let wants r = List.mem r rules in
  let interproc =
    if List.exists wants Rules.[ D101; D102; P001; S005 ] then begin
      let cg = Callgraph.build parsed in
      let taint =
        if wants Rules.D101 || wants Rules.D102 then
          List.filter (fun (f : finding) -> wants f.rule) (Taint.analyze cg ~suppressed)
        else []
      in
      let total = if wants Rules.P001 then Totality.analyze cg else [] in
      let exports =
        if wants Rules.S005 then
          Exports.analyze cg
            (List.map (fun (path, source) -> (path, parse Parse.interface ~path source)) intfs)
        else []
      in
      taint @ total @ exports
    end
    else []
  in
  let kept =
    List.filter
      (fun (f : finding) -> not (suppressed ~rule:f.rule ~path:f.file ~line:f.line))
      (base @ interproc)
  in
  (* S004: every allow must still earn its keep — the ratchet only
     tightens. Only meaningful for rules enabled this run. *)
  let stale =
    if not (wants Rules.S004) then []
    else begin
      let stale_entries =
        List.concat
          (List.mapi
             (fun i (e : Config.entry) ->
               if entry_used.(i) || not (List.exists (fun r -> Rules.to_string r = e.rule) rules)
               then []
               else
                 [
                   Finding.make Rules.S004 ~file:"lint.allow" ~line:e.lnum
                     (Printf.sprintf
                        "stale allow entry '%s %s%s' suppresses nothing; remove it (the allowlist may only shrink)"
                        e.rule e.path
                        (match e.line with None -> "" | Some n -> ":" ^ string_of_int n));
                 ])
             (Array.to_list entries))
      in
      let stale_inline =
        List.concat_map
          (fun (path, _) ->
            (* Test/example sources embed lint fixtures as string
               literals; a line-based scan can't tell those directives
               from live ones, so Test scope is exempt from inline
               staleness. *)
            let directives =
              if Config.scope_of_path path = Config.Test then []
              else try Hashtbl.find inline_tbl path with Not_found -> []
            in
            List.filter_map
              (fun (l, rulenames) ->
                let all_enabled =
                  List.for_all
                    (fun rs -> List.exists (fun r -> Rules.to_string r = rs) rules)
                    rulenames
                in
                if (not all_enabled) || Hashtbl.mem inline_used (path, l) then None
                else
                  Some
                    (Finding.make Rules.S004 ~file:path ~line:l
                       (Printf.sprintf "stale inline 'lint: allow %s' suppresses nothing; remove it"
                          (String.concat " " rulenames))))
              directives)
          sources
      in
      stale_entries @ stale_inline
    end
  in
  List.sort Finding.compare (kept @ stale)

(* ------------------------------------------------------------------ *)
(* Directory walk.                                                     *)
(* ------------------------------------------------------------------ *)

(* Returns repo-relative paths of every .ml and .mli under
   [Config.scanned_dirs] and [Config.reference_dirs], sorted so the
   report (and any failure) is itself deterministic. *)
let source_files root =
  let rec walk rel acc =
    let abs = Filename.concat root rel in
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        if name = "" || name.[0] = '.' || name = "_build" then acc
        else
          let rel = rel ^ "/" ^ name in
          if Sys.is_directory (Filename.concat root rel) then walk rel acc
          else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
            rel :: acc
          else acc)
      acc entries
  in
  let present dir =
    let abs = Filename.concat root dir in
    Sys.file_exists abs && Sys.is_directory abs
  in
  List.fold_left
    (fun acc dir -> if present dir then walk dir acc else acc)
    [] (Config.scanned_dirs @ Config.reference_dirs)
  |> List.sort String.compare

let read_file path =
  try In_channel.with_open_text path In_channel.input_all
  with Sys_error msg -> raise (Error msg)

let scan_root ~rules ~allowlist ~root =
  let files = source_files root in
  let sources = List.map (fun path -> (path, read_file (Filename.concat root path))) files in
  let extra =
    if List.mem Rules.S002 rules then
      List.filter_map
        (fun path ->
          if Config.in_lib path && Filename.check_suffix path ".ml" && not (List.mem (path ^ "i") files)
          then
            Some
              (Finding.make Rules.S002 ~file:path ~line:1
                 "lib/ module has no .mli; declare its public surface")
          else None)
        files
    else []
  in
  scan_project ~rules ~allowlist ~extra sources
