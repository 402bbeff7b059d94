(* S005: every [val] a lib/ interface exports needs a user outside its
   own compilation unit — in lib/, bin/, bench/, examples/ or the
   reference-only perfbench/. A value only its own module uses belongs
   in the .ml alone; one that only test/ uses is dead, or a test hook
   that says so with an inline allow.

   The rule errs towards "used": a missed dead value costs a few lines,
   a false report invites a wrong deletion. So besides resolved value
   paths ([M.f], through dune library wrapping and [module J = M]
   aliases), every other mention of a module — [open M], [M.( ... )],
   [include M], a functor argument, [(module M)] — uses all of its
   values. Values are looked up in the interfaces, not in the
   implementations, so a [val] that an [include Make (Field)] provides
   resolves like any other. *)

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* The [val]s of an interface as (dotted name, line), nested
   [module X : sig ... end] included, and the dotted names of its
   modules. [module type] members and functor results are not exports. *)
let of_signature sg =
  let vals = ref [] and mods = ref [] in
  let rec walk prefix sg =
    List.iter
      (fun (si : Parsetree.signature_item) ->
        match si.Parsetree.psig_desc with
        | Parsetree.Psig_value vd ->
            let name = String.concat "." (prefix @ [ vd.Parsetree.pval_name.Asttypes.txt ]) in
            vals := (name, line_of vd.Parsetree.pval_loc) :: !vals
        | Parsetree.Psig_module md -> module_decl prefix md
        | Parsetree.Psig_recmodule mds -> List.iter (module_decl prefix) mds
        | _ -> ())
      sg
  and module_decl prefix (md : Parsetree.module_declaration) =
    match md.Parsetree.pmd_name.Asttypes.txt with
    | None -> ()
    | Some name -> (
        let path = prefix @ [ name ] in
        mods := String.concat "." path :: !mods;
        match md.Parsetree.pmd_type.Parsetree.pmty_desc with
        | Parsetree.Pmty_signature sg -> walk path sg
        | _ -> ())
  in
  walk [] sg;
  (List.rev !vals, !mods)

(* A mention of module [M] is resolved as the value path [M.*], so the
   resolver's aliases and library wrapping apply to it; [module_of]
   turns the resolved name back into the module's dotted name. *)
let whole = "*"

let analyze cg interfaces =
  (* Keyed by the implementation's path: the unit a reference resolves to. *)
  let exported = Hashtbl.create 512 and modules = Hashtbl.create 64 in
  let checked =
    List.filter_map
      (fun (path, sg) ->
        if not (Config.in_lib path) then None
        else begin
          let ml = Filename.chop_suffix path ".mli" ^ ".ml" in
          let vals, mods = of_signature sg in
          List.iter (fun (name, _) -> Hashtbl.replace exported (ml, name) ()) vals;
          List.iter (fun m -> Hashtbl.replace modules (ml, m) ()) ("" :: mods);
          Some (path, ml, vals)
        end)
      interfaces
  in
  let value_of (u : Callgraph.unit_info) name =
    if Hashtbl.mem exported (u.u_path, name) then Some (u.u_path, name) else None
  in
  (* [name] is "M.N.*", or "*" for the unit itself. *)
  let module_of (u : Callgraph.unit_info) name =
    let m =
      if String.equal name whole then ""
      else String.sub name 0 (String.length name - String.length whole - 1)
    in
    if Hashtbl.mem modules (u.u_path, m) then Some (u.u_path, m) else None
  in
  (* (unit path, value name) and (unit path, module name) uses, split
     by whether test/ or real code makes them. *)
  let uses = Hashtbl.create 1024 in
  List.iter
    (fun (u : Callgraph.unit_info) ->
      let from_test = Config.in_test u.u_path in
      (* Under [open Crypto], [Merkle.root] may mean [Crypto.Merkle.root]:
         a path is also tried behind every module the unit opens. *)
      let opens = ref [ [] ] in
      let collect =
        {
          Ast_iterator.default_iterator with
          open_declaration =
            (fun it od ->
              (match od.Parsetree.popen_expr.Parsetree.pmod_desc with
              | Parsetree.Pmod_ident { txt; _ } -> (
                  match Callgraph.flatten txt with Some p -> opens := p :: !opens | None -> ())
              | _ -> ());
              Ast_iterator.default_iterator.open_declaration it od);
        }
      in
      collect.structure collect u.u_structure;
      let note lookup lid =
        match Callgraph.flatten lid with
        | None -> ()
        | Some parts ->
            List.iter
              (fun o ->
                match Callgraph.resolve cg u ~lookup (o @ parts) with
                | Some (path, name) when not (String.equal path u.u_path) ->
                    Hashtbl.replace uses (from_test, path, name) ()
                | _ -> ())
              !opens
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.Parsetree.pexp_desc with
              | Parsetree.Pexp_ident { txt; _ } -> note value_of txt
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
          module_expr =
            (fun it me ->
              (match me.Parsetree.pmod_desc with
              | Parsetree.Pmod_ident { txt; _ } ->
                  note module_of (Longident.Ldot (txt, whole))
              | _ -> ());
              Ast_iterator.default_iterator.module_expr it me);
        }
      in
      (* A toplevel [module J = M] is an alias the resolver follows at
         each [J.f]; any other module mention uses the whole module. *)
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.Parsetree.pstr_desc with
          | Parsetree.Pstr_module
              { Parsetree.pmb_expr = { Parsetree.pmod_desc = Parsetree.Pmod_ident _; _ }; _ } ->
              ()
          | _ -> it.structure_item it item)
        u.u_structure)
    (Callgraph.units cg);
  (* A value is used by name, or through its unit or any enclosing module. *)
  let used from_test ml name =
    let rec enclosing prefix = function
      | [] | [ _ ] -> []
      | m :: rest ->
          let p = prefix ^ m in
          p :: enclosing (p ^ ".") rest
    in
    List.exists
      (fun n -> Hashtbl.mem uses (from_test, ml, n))
      (name :: "" :: enclosing "" (String.split_on_char '.' name))
  in
  List.concat_map
    (fun (path, ml, vals) ->
      List.filter_map
        (fun (name, line) ->
          if used false ml name then None
          else
            Some
              (Finding.make Rules.S005 ~file:path ~line
                 (Printf.sprintf
                    "'%s' is exported but %s; drop it from the .mli, delete it, or allow it with a reason"
                    name
                    (if used true ml name then "only test/ uses it outside " ^ ml
                     else "nothing outside " ^ ml ^ " uses it"))))
        vals)
    checked
