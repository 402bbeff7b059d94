(* Whole-program definition table and call graph over the scanned
   sources, built from the Parsetree only (no typing pass): enough to
   resolve `Module.fn` paths against dune library names, because this
   repo maps every lib/<dir> to a wrapped library of the same name and
   contains no toplevel `open`s.

   Resolution is best-effort and *under*-approximates: an unresolvable
   reference (functor application, first-class module, shadowed name)
   simply contributes no edge, so the interprocedural rules can miss
   taint but never chase a phantom edge. Iteration over the graph is
   list-based and sorted so downstream reports are deterministic. *)

(* ------------------------------------------------------------------ *)
(* Banned-identifier tables, shared with the per-file pass in Scanner. *)
(* ------------------------------------------------------------------ *)

(* Hashtbl entry points whose visit order is unspecified. *)
let d001_traversals = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

(* Names of the modules bound to [Hashtbl.Make (...)] (or [MakeSeeded])
   anywhere in [structures], nested modules included. Their traversals
   are as unordered as [Hashtbl]'s own. Matching is by name: a use
   [P.M.iter] is flagged when [M] is such a name, whatever [P] is, so a
   table defined in one unit is caught where another unit walks it. *)
let hashtbl_instances structures =
  let rec unwrap (me : Parsetree.module_expr) =
    match me.Parsetree.pmod_desc with
    | Parsetree.Pmod_constraint (me, _) -> unwrap me
    | d -> d
  in
  let is_make = function
    | Longident.Ldot (Longident.Lident "Hashtbl", ("Make" | "MakeSeeded"))
    | Longident.Ldot
        (Longident.Ldot (Longident.Lident "Stdlib", "Hashtbl"), ("Make" | "MakeSeeded"))
      ->
        true
    | _ -> false
  in
  let rec of_items acc items =
    List.fold_left
      (fun acc (item : Parsetree.structure_item) ->
        match item.Parsetree.pstr_desc with
        | Parsetree.Pstr_module mb -> of_binding acc mb
        | Parsetree.Pstr_recmodule mbs -> List.fold_left of_binding acc mbs
        | _ -> acc)
      acc items
  and of_binding acc (mb : Parsetree.module_binding) =
    match (mb.Parsetree.pmb_name.Asttypes.txt, unwrap mb.Parsetree.pmb_expr) with
    | Some name, Parsetree.Pmod_apply (f, _) -> (
        match unwrap f with
        | Parsetree.Pmod_ident { txt; _ } when is_make txt -> name :: acc
        | _ -> acc)
    | _, Parsetree.Pmod_structure items -> of_items acc items
    | _ -> acc
  in
  List.fold_left of_items [] structures |> List.sort_uniq String.compare

(* [lid] walks a hash table in unspecified order: [Hashtbl.f] or
   [M.f] for a [Hashtbl.Make] instance [M] named in [tables], with [f]
   one of [d001_traversals]. Returns the module name as written. *)
let unordered_traversal ~tables lid =
  match lid with
  | Longident.Ldot (Longident.Lident "Hashtbl", f) when List.mem f d001_traversals ->
      Some ("Hashtbl", f)
  | Longident.Ldot ((Longident.Lident m | Longident.Ldot (_, m)), f)
    when List.mem f d001_traversals && List.mem m tables ->
      Some (m, f)
  | _ -> None

(* Host time sources. *)
let d002_clocks = [ ("Unix", "gettimeofday"); ("Unix", "time"); ("Unix", "times"); ("Sys", "time") ]

(* Ambient-state generator functions; Random.State.* (explicitly seeded)
   stays legal, Crypto.Rng is the house generator. *)
let d002_random =
  [ "self_init"; "int"; "full_int"; "bits"; "bits32"; "bits64"; "int32"; "int64"; "nativeint"; "float"; "bool" ]

(* ------------------------------------------------------------------ *)
(* Graph types.                                                        *)
(* ------------------------------------------------------------------ *)

type source_kind = Unordered_traversal | Wall_clock | Ambient_entropy

(* The intra-file rule that governs (and whose allows suppress) a
   taint source of this kind. *)
let base_rule = function
  | Unordered_traversal -> Rules.D001
  | Wall_clock | Ambient_entropy -> Rules.D002

type source = { s_kind : source_kind; s_what : string; s_line : int }

type global = { g_path : string; g_name : string; g_line : int; g_kind : string }

type def = {
  d_path : string;
  d_name : string;  (** dotted within the unit, e.g. "Closed.create" *)
  d_line : int;
  mutable d_sources : source list;  (** direct nondeterministic primitives *)
  mutable d_globals : (global * int) list;  (** referenced mutable toplevel state *)
  mutable d_calls : (def * int) list;  (** resolved callees, with call-site line *)
}

let def_key d = d.d_path ^ ":" ^ d.d_name

let global_key g = g.g_path ^ ":" ^ g.g_name

type tydecl = {
  ty_ctors : string list;  (** constructor names if a variant, else [] *)
  ty_refs : Longident.t list;  (** type constructors referenced by the decl *)
}

type unit_info = {
  u_path : string;
  u_lib : string option;  (** "lyra" for lib/lyra/*.ml; None for bin/bench *)
  u_module : string;  (** capitalized basename *)
  u_structure : Parsetree.structure;
  u_defs : (string, def) Hashtbl.t;
  u_globals : (string, global) Hashtbl.t;
  u_aliases : (string, string list) Hashtbl.t;  (** dotted alias -> target parts *)
  u_types : (string, tydecl) Hashtbl.t;
  mutable u_def_order : def list;  (** declaration order *)
}

type t = {
  units : unit_info list;  (** sorted by path *)
  tables : string list;  (** [hashtbl_instances] of every unit *)
  lib_units : (string, (string, unit_info) Hashtbl.t) Hashtbl.t;
      (** lib name -> module name -> unit *)
}

let units t = t.units

let defs t = List.concat_map (fun u -> u.u_def_order) t.units

(* ------------------------------------------------------------------ *)
(* Longident helpers.                                                  *)
(* ------------------------------------------------------------------ *)

let flatten lid =
  let exception Functor_path in
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> raise Functor_path
  in
  match go [] lid with parts -> Some parts | exception Functor_path -> None

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* ------------------------------------------------------------------ *)
(* Pass 1: collect definitions, globals, aliases and type decls.       *)
(* ------------------------------------------------------------------ *)

let lib_of_path path =
  match String.split_on_char '/' path with
  | [ "lib"; d; _ ] -> Some d
  | _ -> None

let module_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

(* `let x = ref 0` / `Hashtbl.create` / `Queue.create` at module level. *)
let rec mutable_rhs_kind (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_coerce (e, _, _) ->
      mutable_rhs_kind e
  | Parsetree.Pexp_apply (f, _) -> (
      match f.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt = Longident.Lident "ref"; _ } -> Some "ref"
      | Parsetree.Pexp_ident { txt = Longident.Ldot (Longident.Lident "Hashtbl", "create"); _ } ->
          Some "Hashtbl"
      | Parsetree.Pexp_ident { txt = Longident.Ldot (Longident.Lident "Queue", "create"); _ } ->
          Some "Queue"
      | _ -> None)
  | _ -> None

let rec binding_name (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> Some txt
  | Parsetree.Ppat_constraint (p, _) -> binding_name p
  | _ -> None

(* Type constructors referenced anywhere inside a type declaration. *)
let type_refs_of_decl (td : Parsetree.type_declaration) =
  let refs = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      typ =
        (fun it ty ->
          (match ty.Parsetree.ptyp_desc with
          | Parsetree.Ptyp_constr ({ txt; _ }, _) -> refs := txt :: !refs
          | _ -> ());
          Ast_iterator.default_iterator.typ it ty);
    }
  in
  it.type_declaration it td;
  List.rev !refs

let collect_unit ~path structure =
  let u =
    {
      u_path = path;
      u_lib = lib_of_path path;
      u_module = module_of_path path;
      u_structure = structure;
      u_defs = Hashtbl.create 32;
      u_globals = Hashtbl.create 4;
      u_aliases = Hashtbl.create 4;
      u_types = Hashtbl.create 8;
      u_def_order = [];
    }
  in
  let dotted prefix name = String.concat "." (prefix @ [ name ]) in
  let add_def prefix name line =
    let d =
      { d_path = path; d_name = dotted prefix name; d_line = line;
        d_sources = []; d_globals = []; d_calls = [] }
    in
    Hashtbl.replace u.u_defs d.d_name d;
    u.u_def_order <- d :: u.u_def_order;
    d
  in
  let rec walk_structure prefix items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                let line = line_of vb.Parsetree.pvb_pat.Parsetree.ppat_loc in
                match binding_name vb.Parsetree.pvb_pat with
                | Some name -> (
                    match mutable_rhs_kind vb.Parsetree.pvb_expr with
                    | Some kind ->
                        Hashtbl.replace u.u_globals (dotted prefix name)
                          { g_path = path; g_name = dotted prefix name;
                            g_line = line; g_kind = kind }
                    | None -> ignore (add_def prefix name line : def))
                | None ->
                    (* `let () = ...` / `let _ = ...` entry blocks still
                       execute code; give them a synthetic def name so
                       bin/bench entry points are taint roots. *)
                    ignore (add_def prefix (Printf.sprintf "(entry:%d)" line) line : def))
              vbs
        | Parsetree.Pstr_module mb -> walk_module prefix mb
        | Parsetree.Pstr_recmodule mbs -> List.iter (walk_module prefix) mbs
        | Parsetree.Pstr_type (_, decls) ->
            List.iter
              (fun (td : Parsetree.type_declaration) ->
                let ctors =
                  match td.Parsetree.ptype_kind with
                  | Parsetree.Ptype_variant cds ->
                      List.map
                        (fun (cd : Parsetree.constructor_declaration) ->
                          cd.Parsetree.pcd_name.Asttypes.txt)
                        cds
                  | _ -> []
                in
                Hashtbl.replace u.u_types
                  (dotted prefix td.Parsetree.ptype_name.Asttypes.txt)
                  { ty_ctors = ctors; ty_refs = type_refs_of_decl td })
              decls
        | _ -> ())
      items
  and walk_module prefix (mb : Parsetree.module_binding) =
    match mb.Parsetree.pmb_name.Asttypes.txt with
    | None -> ()
    | Some name -> (
        let rec unwrap (me : Parsetree.module_expr) =
          match me.Parsetree.pmod_desc with
          | Parsetree.Pmod_constraint (me, _) -> unwrap me
          | d -> d
        in
        match unwrap mb.Parsetree.pmb_expr with
        | Parsetree.Pmod_structure items -> walk_structure (prefix @ [ name ]) items
        | Parsetree.Pmod_ident { txt; _ } -> (
            match flatten txt with
            | Some parts ->
                Hashtbl.replace u.u_aliases (dotted prefix name) parts
            | None -> ())
        | _ -> ())
  in
  walk_structure [] structure;
  u.u_def_order <- List.rev u.u_def_order;
  u

(* ------------------------------------------------------------------ *)
(* Name resolution.                                                    *)
(* ------------------------------------------------------------------ *)

(* Generic resolver over per-unit name tables. [lookup u name] searches
   one unit for the dotted [name]; the resolver adds same-library
   sibling modules, dune library wrapping (Lib.Module.name), and
   simple module aliases. *)
let resolve (t : t) u ~lookup parts =
  let rec resolve u parts depth =
    if depth > 8 then None
    else
      let try_sibling () =
        match (u.u_lib, parts) with
        | Some lib, m1 :: (_ :: _ as rest) -> (
            match Hashtbl.find_opt t.lib_units lib with
            | None -> None
            | Some mods -> (
                match Hashtbl.find_opt mods m1 with
                | Some u' when u' != u -> resolve u' rest (depth + 1)
                | _ -> None))
        | _ -> None
      in
      let try_library () =
        match parts with
        | m1 :: (_ :: _ as rest) -> (
            match Hashtbl.find_opt t.lib_units (String.uncapitalize_ascii m1) with
            | None -> None
            | Some mods -> (
                let main () =
                  match Hashtbl.find_opt mods (String.capitalize_ascii m1) with
                  | Some u' when u' != u -> resolve u' rest (depth + 1)
                  | _ -> None
                in
                match rest with
                | m2 :: (_ :: _ as rest2) -> (
                    match Hashtbl.find_opt mods m2 with
                    | Some u' when u' != u -> (
                        match resolve u' rest2 (depth + 1) with
                        | Some r -> Some r
                        | None -> main ())
                    | _ -> main ())
                | _ -> main ()))
        | _ -> None
      in
      let try_alias () =
        match parts with
        | m1 :: rest -> (
            match Hashtbl.find_opt u.u_aliases m1 with
            | Some target when target <> [ m1 ] -> resolve u (target @ rest) (depth + 1)
            | _ -> None)
        | [] -> None
      in
      match lookup u (String.concat "." parts) with
      | Some r -> Some r
      | None -> (
          match try_sibling () with
          | Some r -> Some r
          | None -> (
              match try_library () with
              | Some r -> Some r
              | None -> try_alias ()))
  in
  resolve u parts 0

type target = Def of def | Global of global

let resolve_value t u parts =
  let lookup u name =
    match Hashtbl.find_opt u.u_defs name with
    | Some d -> Some (Def d)
    | None -> (
        match Hashtbl.find_opt u.u_globals name with
        | Some g -> Some (Global g)
        | None -> None)
  in
  resolve t u ~lookup parts

(* Resolve a type constructor path to its declaring (unit, decl). *)
let resolve_type t u parts =
  let lookup u name =
    match Hashtbl.find_opt u.u_types name with
    | Some td -> Some (u, td)
    | None -> None
  in
  resolve t u ~lookup parts

(* ------------------------------------------------------------------ *)
(* Pass 2: per-def bodies — direct sources, global touches, edges.     *)
(* ------------------------------------------------------------------ *)

let classify_source ~tables path lid =
  match (unordered_traversal ~tables lid, lid) with
  | Some (m, f), _ -> Some (Unordered_traversal, m ^ "." ^ f)
  | None, Longident.Ldot (Longident.Lident m, f) when List.mem (m, f) d002_clocks ->
      Some (Wall_clock, m ^ "." ^ f)
  | None, Longident.Ldot (Longident.Lident "Random", f)
    when List.mem f d002_random && not (Config.is_rng_module path) ->
      Some (Ambient_entropy, "Random." ^ f)
  | None, _ -> None

let scan_body t u (d : def) (body : Parsetree.expression) =
  let seen_calls = Hashtbl.create 8 in
  let seen_globals = Hashtbl.create 4 in
  let on_ident lid loc =
    (match classify_source ~tables:t.tables u.u_path lid with
    | Some (s_kind, s_what) ->
        d.d_sources <- { s_kind; s_what; s_line = line_of loc } :: d.d_sources
    | None -> ());
    match flatten lid with
    | None -> ()
    | Some parts -> (
        match resolve_value t u parts with
        | Some (Def callee) when callee != d ->
            if not (Hashtbl.mem seen_calls (def_key callee)) then begin
              Hashtbl.replace seen_calls (def_key callee) ();
              d.d_calls <- (callee, line_of loc) :: d.d_calls
            end
        | Some (Global g) ->
            if not (Hashtbl.mem seen_globals (global_key g)) then begin
              Hashtbl.replace seen_globals (global_key g) ();
              d.d_globals <- (g, line_of loc) :: d.d_globals
            end
        | _ -> ())
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; loc } -> on_ident txt loc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  d.d_sources <- List.rev d.d_sources;
  d.d_globals <- List.rev d.d_globals;
  d.d_calls <- List.rev d.d_calls

(* Re-walk the structure pairing each recorded def with its binding
   body (the def table alone has no expressions). *)
let scan_unit t u =
  let rec walk_structure prefix items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                let line = line_of vb.Parsetree.pvb_pat.Parsetree.ppat_loc in
                let name =
                  match binding_name vb.Parsetree.pvb_pat with
                  | Some name -> String.concat "." (prefix @ [ name ])
                  | None ->
                      String.concat "." (prefix @ [ Printf.sprintf "(entry:%d)" line ])
                in
                match Hashtbl.find_opt u.u_defs name with
                | Some d when d.d_line = line -> scan_body t u d vb.Parsetree.pvb_expr
                | _ -> ())
              vbs
        | Parsetree.Pstr_module mb -> walk_module prefix mb
        | Parsetree.Pstr_recmodule mbs -> List.iter (walk_module prefix) mbs
        | _ -> ())
      items
  and walk_module prefix (mb : Parsetree.module_binding) =
    match mb.Parsetree.pmb_name.Asttypes.txt with
    | None -> ()
    | Some name -> (
        let rec unwrap (me : Parsetree.module_expr) =
          match me.Parsetree.pmod_desc with
          | Parsetree.Pmod_constraint (me, _) -> unwrap me
          | d -> d
        in
        match unwrap mb.Parsetree.pmb_expr with
        | Parsetree.Pmod_structure items -> walk_structure (prefix @ [ name ]) items
        | _ -> ())
  in
  walk_structure [] u.u_structure

(* ------------------------------------------------------------------ *)

let build files =
  let units =
    List.map (fun (path, structure) -> collect_unit ~path structure) files
    |> List.sort (fun a b -> String.compare a.u_path b.u_path)
  in
  let lib_units = Hashtbl.create 16 in
  List.iter
    (fun u ->
      match u.u_lib with
      | None -> ()
      | Some lib ->
          let mods =
            match Hashtbl.find_opt lib_units lib with
            | Some m -> m
            | None ->
                let m = Hashtbl.create 8 in
                Hashtbl.replace lib_units lib m;
                m
          in
          Hashtbl.replace mods u.u_module u)
    units;
  let tables = hashtbl_instances (List.map (fun u -> u.u_structure) units) in
  let t = { units; tables; lib_units } in
  List.iter (fun u -> scan_unit t u) units;
  t
