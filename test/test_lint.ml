(* Tests for the lyra_lint static-analysis pass: each rule has at
   least one firing and one non-firing fixture, the allowlisting
   mechanisms work, and the allowlist shipped in the repo parses. *)

let render (f : Lint.Scanner.finding) =
  Printf.sprintf "%s:%d:%s" f.file f.line (Lint.Rules.to_string f.rule)

(* [check msg expected path src] lints [src] as if it lived at [path]
   and compares the findings (as "file:line:RULE") against [expected]. *)
let check ?(rules = Lint.Rules.all) msg expected path src =
  let got = List.map render (Lint.Scanner.scan_source ~rules ~path src) in
  Alcotest.(check (list string)) msg expected got

(* ------------------------------------------------------------------ *)
(* D001: unordered Hashtbl traversal in deterministic code.            *)
(* ------------------------------------------------------------------ *)

let d001_bad = "let f tbl =\n  Hashtbl.iter (fun _ _ -> ()) tbl\n"

let test_d001_fires () =
  check "iter in lib/lyra" [ "lib/lyra/fix.ml:2:D001" ] "lib/lyra/fix.ml" d001_bad;
  check "fold in lib/sim"
    [ "lib/sim/fix.ml:1:D001" ]
    "lib/sim/fix.ml" "let n tbl = Hashtbl.fold (fun _ _ a -> a + 1) tbl 0\n";
  check "to_seq in lib/dbft"
    [ "lib/dbft/fix.ml:1:D001" ]
    "lib/dbft/fix.ml" "let s tbl = Hashtbl.to_seq tbl\n"

let test_d001_scoped () =
  (* same pattern outside the deterministic dirs is legal *)
  check "iter in lib/metrics" [] "lib/metrics/fix.ml" d001_bad;
  check "iter in test/" [] "test/fix.ml" d001_bad;
  (* point lookups and mutation are always fine *)
  check "replace/find in lib/lyra" [] "lib/lyra/fix.ml"
    "let f tbl = Hashtbl.replace tbl 1 2; Hashtbl.find_opt tbl 1\n"

(* File-granular Strict scope: verify_cache.ml is held to the
   deterministic rules although the rest of lib/crypto is not. *)
let test_file_granular_strict () =
  Alcotest.(check bool)
    "verify_cache.ml is Strict" true
    (Lint.Config.scope_of_path "lib/crypto/verify_cache.ml" = Lint.Config.Strict);
  Alcotest.(check bool)
    "sibling field.ml stays Lib" true
    (Lint.Config.scope_of_path "lib/crypto/field.ml" = Lint.Config.Lib);
  (* the attack-campaign modules sit in already-Strict dirs; pin that
     so a future scope refactor cannot silently drop them *)
  Alcotest.(check bool)
    "explore/attack.ml is Strict" true
    (Lint.Config.scope_of_path "lib/explore/attack.ml" = Lint.Config.Strict);
  Alcotest.(check bool)
    "sim/adversary.ml is Strict" true
    (Lint.Config.scope_of_path "lib/sim/adversary.ml" = Lint.Config.Strict);
  check "traversal fires in verify_cache"
    [ "lib/crypto/verify_cache.ml:2:D001" ]
    "lib/crypto/verify_cache.ml" d001_bad;
  check "same traversal legal in sibling" [] "lib/crypto/field.ml" d001_bad

let test_d001_inline_allow () =
  check "allow on previous line" [] "lib/lyra/fix.ml"
    "let f tbl =\n  (* lint: allow D001 *)\n  Hashtbl.iter (fun _ _ -> ()) tbl\n";
  check "allow trailing on same line" [] "lib/lyra/fix.ml"
    "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl (* lint: allow D001 *)\n";
  check "allow two lines above does not reach"
    [ "lib/lyra/fix.ml:4:D001" ]
    "lib/lyra/fix.ml"
    "let f tbl =\n  (* lint: allow D001 *)\n  ignore tbl;\n  Hashtbl.iter (fun _ _ -> ()) tbl\n";
  check "allow for a different rule does not apply"
    [ "lib/lyra/fix.ml:2:D001" ]
    "lib/lyra/fix.ml"
    "let f tbl =\n  Hashtbl.iter (fun _ _ -> ()) tbl (* lint: allow D002 *)\n"

(* ------------------------------------------------------------------ *)
(* D002: wall clock / ambient entropy.                                 *)
(* ------------------------------------------------------------------ *)

let test_d002_fires () =
  check "gettimeofday in bench" [ "bench/fix.ml:1:D002" ] "bench/fix.ml"
    "let t = Unix.gettimeofday ()\n";
  check "Sys.time in examples" [ "examples/fix.ml:1:D002" ] "examples/fix.ml"
    "let t = Sys.time ()\n";
  check "self_init in test" [ "test/fix.ml:1:D002" ] "test/fix.ml"
    "let () = Random.self_init ()\n";
  check "Random.int in lib" [ "lib/workload/fix.ml:1:D002" ] "lib/workload/fix.ml"
    "let r = Random.int 10\n"

let test_d002_exemptions () =
  (* the house generator may use Random internally *)
  check "Random.int inside lib/crypto/rng.ml" [] "lib/crypto/rng.ml"
    "let r = Random.int 10\n";
  (* explicitly seeded state is deterministic, hence legal *)
  check "Random.State is legal" [] "lib/lyra/fix.ml"
    "let r st = Random.State.int st 10\n";
  (* unrelated Unix/Sys calls are not time sources *)
  check "Sys.file_exists is legal" [] "lib/lyra/fix.ml"
    "let e = Sys.file_exists \"x\"\n"

(* ------------------------------------------------------------------ *)
(* D003: polymorphic structural compare / hash.                        *)
(* ------------------------------------------------------------------ *)

let test_d003_fires () =
  check "bare compare in lib"
    [ "lib/metrics/fix.ml:1:D003" ]
    "lib/metrics/fix.ml" "let sort xs = List.sort compare xs\n";
  check "Stdlib.compare in lib"
    [ "lib/lyra/fix.ml:1:D003" ]
    "lib/lyra/fix.ml" "let c a b = Stdlib.compare a b\n";
  check "Stdlib.(=) in lib"
    [ "lib/lyra/fix.ml:1:D003" ]
    "lib/lyra/fix.ml" "let eq a b = Stdlib.( = ) a b\n";
  check "Hashtbl.hash in lib"
    [ "lib/sim/fix.ml:1:D003" ]
    "lib/sim/fix.ml" "let h x = Hashtbl.hash x\n";
  (* bare = / <> between two variables in deterministic protocol code *)
  check "bare = on variables in lib/lyra"
    [ "lib/lyra/fix.ml:1:D003" ]
    "lib/lyra/fix.ml" "let f a b = a = b\n";
  check "bare <> on fields in lib/protocol"
    [ "lib/protocol/fix.ml:1:D003" ]
    "lib/protocol/fix.ml" "let f a b = a.Lyra.Types.proposer <> b\n"

let test_d003_silent () =
  check "qualified Int.compare" [] "lib/lyra/fix.ml"
    "let sort xs = List.sort Int.compare xs\n";
  (* a module defining its own compare may use the name unqualified *)
  check "locally defined compare" [] "lib/crypto/fix.ml"
    "let compare = Int.compare\nlet sort xs = List.sort compare xs\n";
  (* outside lib/ the polymorphic fallback is tolerated *)
  check "bare compare in bench" [] "bench/fix.ml"
    "let sort xs = List.sort compare xs\n";
  (* comparisons against syntactic immediates stay legal *)
  check "bare = against a literal is legal" [] "lib/lyra/fix.ml" "let f x = x = 3\n";
  check "bare = against None is legal" [] "lib/lyra/fix.ml"
    "let f x = x = None\n";
  check "bare <> against [] is legal" [] "lib/lyra/fix.ml"
    "let f x = x <> []\n";
  (* and outside the deterministic dirs bare = is not D003's business *)
  check "bare = on variables in lib/metrics is legal" [] "lib/metrics/fix.ml"
    "let f a b = a = b\n";
  check "bare = on variables in bench is legal" [] "bench/fix.ml"
    "let f a b = a = b\n"

(* ------------------------------------------------------------------ *)
(* S001: Obj escape hatches.                                           *)
(* ------------------------------------------------------------------ *)

let test_s001 () =
  check "Obj.magic fires anywhere"
    [ "test/fix.ml:1:S001" ]
    "test/fix.ml" "let f x = Obj.magic x\n";
  check "Obj.repr fires in lib"
    [ "lib/app/fix.ml:1:S001" ]
    "lib/app/fix.ml" "let f x = Obj.repr x\n";
  check "plain code is silent" [] "lib/app/fix.ml" "let f x = x\n"

(* ------------------------------------------------------------------ *)
(* S003: warning suppressions in lib/.                                 *)
(* ------------------------------------------------------------------ *)

let test_s003 () =
  check "floating attribute in lib"
    [ "lib/lyra/fix.ml:1:S003" ]
    "lib/lyra/fix.ml" "[@@@warning \"-32\"]\nlet unused = 1\n";
  check "item attribute in lib"
    [ "lib/lyra/fix.ml:1:S003" ]
    "lib/lyra/fix.ml" "let f x = x [@@warning \"-27\"]\n";
  check "suppression outside lib is tolerated" [] "bin/fix.ml"
    "[@@@warning \"-32\"]\nlet unused = 1\n"

(* ------------------------------------------------------------------ *)
(* The fault layer and the invariant monitor live in deterministic     *)
(* dirs (lib/sim, lib/harness): the idioms a fault implementation is   *)
(* most tempted by — ambient randomness for drop decisions, unordered  *)
(* traversal of per-node fault state, structural equality on fault     *)
(* records — must all be caught there.                                 *)
(* ------------------------------------------------------------------ *)

let test_fault_layer_fixtures () =
  check "Random drop decision in lib/sim/faults.ml"
    [ "lib/sim/faults.ml:1:D002" ]
    "lib/sim/faults.ml" "let dropped p = Random.float 1.0 < p\n";
  check "unordered traversal of crash tombstones"
    [ "lib/sim/faults.ml:1:D001" ]
    "lib/sim/faults.ml"
    "let live tbl = Hashtbl.fold (fun _ _ a -> a + 1) tbl 0\n";
  check "structural compare on fault windows"
    [ "lib/sim/faults.ml:1:D003" ]
    "lib/sim/faults.ml" "let sort ws = List.sort compare ws\n";
  check "monitor iterating node logs unordered"
    [ "lib/harness/invariant_monitor.ml:2:D001" ]
    "lib/harness/invariant_monitor.ml"
    "let scan logs =\n  Hashtbl.iter (fun _ _ -> ()) logs\n";
  check "monitor comparing outputs structurally"
    [ "lib/harness/invariant_monitor.ml:1:D003" ]
    "lib/harness/invariant_monitor.ml" "let same a b = a = b\n";
  (* the legal versions stay silent: seeded streams, sorted traversal,
     typed comparison *)
  check "seeded rng + sorted bindings + typed compare are legal" []
    "lib/sim/faults.ml"
    "let dropped st p = Crypto.Rng.float st 1.0 < p\n\
     let live tbl = List.length (Sim.Det.sorted_bindings ~cmp:Int.compare tbl)\n\
     let sort ws = List.sort Int.compare ws\n"

(* ------------------------------------------------------------------ *)
(* Rule selection.                                                     *)
(* ------------------------------------------------------------------ *)

let test_rule_filter () =
  check ~rules:[ Lint.Rules.D002 ] "disabled rule stays quiet" [] "lib/lyra/fix.ml" d001_bad;
  check
    ~rules:[ Lint.Rules.D001 ]
    "enabled rule still fires"
    [ "lib/lyra/fix.ml:2:D001" ]
    "lib/lyra/fix.ml" d001_bad

(* ------------------------------------------------------------------ *)
(* S002 + allowlist filtering, over a real directory tree.             *)
(* ------------------------------------------------------------------ *)

let write_file path content =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc content)

let test_s002_and_allowlist () =
  let root = Filename.temp_file "lyra_lint_root" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  Sys.mkdir (Filename.concat root "lib/lyra") 0o755;
  write_file (Filename.concat root "lib/lyra/bare.ml") "let x = 1\n";
  write_file (Filename.concat root "lib/lyra/sealed.ml") "let y = 2\n";
  write_file (Filename.concat root "lib/lyra/sealed.mli") "val y : int\n";
  let scan allowlist =
    List.map render
      (Lint.Scanner.scan_root ~rules:Lint.Rules.all ~allowlist ~root)
  in
  Alcotest.(check (list string))
    "module without mli fires, sealed one does not"
    [ "lib/lyra/bare.ml:1:S002" ] (scan []);
  let allowlist =
    match Lint.Config.parse "S002 lib/lyra/bare.ml\n" with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "allowlist entry suppresses it" [] (scan allowlist);
  List.iter
    (fun f -> Sys.remove (Filename.concat root f))
    [ "lib/lyra/bare.ml"; "lib/lyra/sealed.ml"; "lib/lyra/sealed.mli" ];
  List.iter (fun d -> Sys.rmdir (Filename.concat root d)) [ "lib/lyra"; "lib" ];
  Sys.rmdir root

(* ------------------------------------------------------------------ *)
(* Allowlist parsing.                                                  *)
(* ------------------------------------------------------------------ *)

let test_allow_parsing () =
  let parsed =
    Lint.Config.parse
      "# comment\n\nD001 lib/sim/det.ml   # trailing comment\nS002 lib/crypto/field_intf.ml\nD002 bench/main.ml:461\n"
  in
  (match parsed with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      Alcotest.(check int) "three entries" 3 (List.length entries);
      Alcotest.(check bool) "file-wide entry matches any line" true
        (Lint.Config.allows entries ~rule:Lint.Rules.D001 ~path:"lib/sim/det.ml" ~line:99);
      Alcotest.(check bool) "line entry matches its line" true
        (Lint.Config.allows entries ~rule:Lint.Rules.D002 ~path:"bench/main.ml" ~line:461);
      Alcotest.(check bool) "line entry rejects other lines" false
        (Lint.Config.allows entries ~rule:Lint.Rules.D002 ~path:"bench/main.ml" ~line:462);
      Alcotest.(check bool) "other path rejected" false
        (Lint.Config.allows entries ~rule:Lint.Rules.D001 ~path:"lib/sim/engine.ml" ~line:99));
  (match Lint.Config.parse "D9XY lib/sim/det.ml\n" with
  | Ok _ -> Alcotest.fail "unknown rule id must be rejected"
  | Error _ -> ());
  match Lint.Config.parse "D001 lib/sim/det.ml:zero\n" with
  | Ok _ -> Alcotest.fail "bad line number must be rejected"
  | Error _ -> ()

let shipped_allow_candidates =
  [ "lint.allow"; "../lint.allow"; "../../lint.allow"; "../../../lint.allow" ]

let test_shipped_allowlist_parses () =
  match List.find_opt Sys.file_exists shipped_allow_candidates with
  | None -> Alcotest.fail "could not locate the repo's lint.allow from the test cwd"
  | Some path -> (
      match Lint.Config.load path with
      | Error e -> Alcotest.fail e
      | Ok entries ->
          Alcotest.(check bool) "shipped allowlist is non-empty" true (entries <> []))

(* ------------------------------------------------------------------ *)
(* Tool scope (bin/, bench/): D001 applies there too.                  *)
(* ------------------------------------------------------------------ *)

let test_d001_tool_scope () =
  check "iter in bench" [ "bench/fix.ml:2:D001" ] "bench/fix.ml" d001_bad;
  check "iter in bin" [ "bin/fix.ml:2:D001" ] "bin/fix.ml" d001_bad;
  (* but the lib-only hygiene rules still skip tools *)
  check "bare compare in bin stays legal" [] "bin/fix.ml"
    "let sort xs = List.sort compare xs\n"

(* ------------------------------------------------------------------ *)
(* Interprocedural fixtures run through scan_project.                  *)
(* ------------------------------------------------------------------ *)

let project ?(rules = Lint.Rules.all) ?(allow = "") files =
  let allowlist =
    match Lint.Config.parse allow with Ok a -> a | Error e -> Alcotest.fail e
  in
  Lint.Scanner.scan_project ~rules ~allowlist files

let check_project ?rules ?allow msg expected files =
  Alcotest.(check (list string)) msg expected (List.map render (project ?rules ?allow files))

(* D001 on Hashtbl.Make instances: a functor-built table walks its
   buckets in the same unspecified order as Hashtbl itself. *)
let int_tbl_def =
  "module Tbl = Hashtbl.Make (struct type t = int let equal = Int.equal let hash x = x end)\n"

let test_d001_functor_fires () =
  check "iter on a local instance"
    [ "lib/lyra/fix.ml:2:D001" ]
    "lib/lyra/fix.ml" (int_tbl_def ^ "let f tbl = Tbl.iter (fun _ _ -> ()) tbl\n");
  check "to_seq_keys on a nested, constrained instance"
    [ "lib/sim/fix.ml:4:D001" ]
    "lib/sim/fix.ml"
    "module Keys = struct\n  module T : Hashtbl.S with type key = int = Stdlib.Hashtbl.MakeSeeded (S)\nend\nlet f tbl = Keys.T.to_seq_keys tbl\n";
  (* defined in one unit, walked in another: the project scan sees it *)
  check_project "fold on an instance from another unit"
    [ "lib/lyra/node.ml:1:D001" ]
    [
      ("lib/lyra/types.ml", "module Iid_tbl = Hashtbl.Make (Key)\n");
      ("lib/lyra/node.ml", "let n tbl = Types.Iid_tbl.fold (fun _ _ a -> a + 1) tbl 0\n");
    ];
  (* and it is a taint source for the interprocedural rule *)
  check_project "instance walk in lib/metrics reached from lib/lyra"
    [ "lib/lyra/fix.ml:1:D101" ]
    [
      ("lib/lyra/fix.ml", "let commit tbl = Metrics.Helper.walk tbl\n");
      ("lib/metrics/helper.ml", int_tbl_def ^ "let walk tbl = Tbl.iter (fun _ _ -> ()) tbl\n");
    ]

let test_d001_functor_clean () =
  check "probes and updates on an instance" [] "lib/lyra/fix.ml"
    (int_tbl_def ^ "let f tbl = Tbl.replace tbl 1 2; Tbl.find_opt tbl 1\n");
  check "ordered Map.Make walk" [] "lib/lyra/fix.ml"
    "module M = Map.Make (Int)\nlet f m = M.iter (fun _ _ -> ()) m\n";
  check "instance walked outside the deterministic dirs" [] "lib/metrics/fix.ml"
    (int_tbl_def ^ "let f tbl = Tbl.iter (fun _ _ -> ()) tbl\n")

(* D101: the nondeterministic source sits two modules away from the
   deterministic-scope caller; the finding lands on the caller and
   carries the full chain. *)
let d101_fixture =
  [
    ("lib/lyra/fix.ml", "let commit tbl = Metrics.Snap.snapshot tbl\n");
    ("lib/metrics/snap.ml", "let snapshot tbl = Helper.walk tbl\n");
    ("lib/metrics/helper.ml", "let walk tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n");
  ]

let test_d101_cross_module () =
  match project d101_fixture with
  | [ f ] ->
      Alcotest.(check string) "rule" "D101" (Lint.Rules.to_string f.Lint.Scanner.rule);
      Alcotest.(check string) "boundary file" "lib/lyra/fix.ml" f.Lint.Scanner.file;
      Alcotest.(check (list string))
        "full interprocedural chain, caller first, primitive last"
        [
          "lib/lyra/fix.ml:1 commit";
          "lib/metrics/snap.ml:1 snapshot";
          "lib/metrics/helper.ml:1 walk";
          "lib/metrics/helper.ml:1 Hashtbl.iter";
        ]
        f.Lint.Scanner.chain
  | got ->
      Alcotest.failf "expected exactly one D101 finding, got [%s]"
        (String.concat "; " (List.map render got))

let test_d101_boundary_only () =
  (* a longer strict-side chain still yields ONE finding, at the
     strict function that steps outside — not at every caller above *)
  check_project "single boundary finding on a 4-hop chain"
    [ "lib/lyra/entry.ml:1:D101" ]
    [
      ("lib/lyra/top.ml", "let run tbl = Entry.go tbl\n");
      ("lib/lyra/entry.ml", "let go tbl = Metrics.Snap.snapshot tbl\n");
      ("lib/metrics/snap.ml", "let snapshot tbl = Helper.walk tbl\n");
      ("lib/metrics/helper.ml", "let walk tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n");
    ]

let test_d101_tool_root () =
  (* bin entry blocks are roots too, via their synthetic defs *)
  check_project "bin toplevel reaching a lib source"
    [ "bin/fix.ml:1:D101" ]
    [
      ("bin/fix.ml", "let () = Metrics.Snap.snapshot (Hashtbl.create 1)\n");
      ("lib/metrics/snap.ml", "let snapshot tbl = Helper.walk tbl\n");
      ("lib/metrics/helper.ml", "let walk tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n");
    ]

let test_d101_seed_suppression () =
  (* allowing the primitive (inline or via lint.allow) also stops the
     taint it would radiate *)
  check_project "inline allow at the source kills the taint" []
    [
      ("lib/lyra/fix.ml", "let commit tbl = Metrics.Snap.snapshot tbl\n");
      ("lib/metrics/snap.ml", "let snapshot tbl = Helper.walk tbl\n");
      ( "lib/metrics/helper.ml",
        "(* single-entry table, order immaterial; lint: allow D001 *)\n\
         let walk tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n" );
    ];
  check_project
    ~allow:"D001 lib/metrics/helper.ml:1\n"
    "allowlist entry at the source kills the taint" [] d101_fixture

let test_d101_untainted () =
  check_project "sorted traversal does not taint" []
    [
      ("lib/lyra/fix.ml", "let commit tbl = Metrics.Snap.snapshot tbl\n");
      ( "lib/metrics/snap.ml",
        "let snapshot tbl = List.length (Sim.Det.sorted_bindings ~cmp:Int.compare tbl)\n" );
    ]

(* D102: module-toplevel mutable state reachable from strict scope. *)
let test_d102_direct () =
  check_project "toplevel ref touched in the same module"
    [ "lib/lyra/fix.ml:2:D102" ]
    [ ("lib/lyra/fix.ml", "let counter = ref 0\nlet bump () = incr counter\n") ]

let test_d102_cross_module () =
  match
    project
      [
        ("lib/lyra/fix.ml", "let on_commit () = Metrics.Stats.bump ()\n");
        ("lib/metrics/stats.ml", "let total = ref 0\nlet bump () = incr total\n");
      ]
  with
  | [ f ] ->
      Alcotest.(check string) "rendered" "lib/lyra/fix.ml:1:D102" (render f);
      Alcotest.(check (list string)) "chain ends at the global"
        [
          "lib/lyra/fix.ml:1 on_commit";
          "lib/metrics/stats.ml:2 bump";
          "lib/metrics/stats.ml:1 total (ref)";
        ]
        f.Lint.Scanner.chain
  | got ->
      Alcotest.failf "expected exactly one D102 finding, got [%s]"
        (String.concat "; " (List.map render got))

let test_d102_scoped () =
  (* the same escape wholly outside strict scope is not D102's business *)
  check_project "toplevel ref in lib/metrics alone" []
    [ ("lib/metrics/stats.ml", "let total = ref 0\nlet bump () = incr total\n") ];
  (* and an inline allow at the global's definition silences all reach *)
  check_project "allow at the global's definition" []
    [
      ( "lib/lyra/fix.ml",
        "(* lint: allow D102 *)\n\
         let counter = ref 0\n\
         let bump () = incr counter\n" );
    ]

(* P001: wildcard arms over protocol message constructors. *)
let p001_types = "type msg = Init of int | Vote of int | Decide of int\n"

let test_p001_fires () =
  check_project "wildcard dispatch over a network message type"
    [ "lib/lyra/node.ml:4:P001" ]
    [
      ("lib/lyra/types.ml", p001_types);
      ( "lib/lyra/node.ml",
        "let handle (_net : Types.msg Sim.Network.t) (m : Types.msg) =\n\
        \  match m with\n\
        \  | Types.Init _ -> ()\n\
        \  | _ -> ()\n" );
    ]

let test_p001_silent () =
  let types_unit = ("lib/lyra/types.ml", p001_types) in
  check_project "total match is fine" []
    [
      types_unit;
      ( "lib/lyra/node.ml",
        "let handle (_net : Types.msg Sim.Network.t) (m : Types.msg) =\n\
        \  match m with\n\
        \  | Types.Init _ -> ()\n\
        \  | Types.Vote _ -> ()\n\
        \  | Types.Decide _ -> ()\n" );
    ];
  check_project "binding a variable instead of _ is deliberate" []
    [
      types_unit;
      ( "lib/lyra/node.ml",
        "let handle (_net : Types.msg Sim.Network.t) (m : Types.msg) =\n\
        \  match m with\n\
        \  | Types.Init _ -> ()\n\
        \  | other -> ignore other\n" );
    ];
  check_project "wildcard over a non-message type is fine" []
    [
      types_unit;
      ( "lib/lyra/node.ml",
        "let _use (_net : Types.msg Sim.Network.t) = ()\n\
         let f (o : int option) = match o with Some _ -> 1 | _ -> 0\n" );
    ];
  (* outside totality scope the same wildcard is legal *)
  check_project "wildcard dispatch outside totality dirs" []
    [
      ("lib/sim/types.ml", p001_types);
      ( "lib/sim/node.ml",
        "let handle (_net : Types.msg Sim.Network.t) (m : Types.msg) =\n\
        \  match m with\n\
        \  | Types.Init _ -> ()\n\
        \  | _ -> ()\n" );
    ]

(* The fairness/DAG-ordering libraries are held to Strict scope, and
   the DAG message dispatch to P001 totality — pin both so a scope
   refactor cannot silently drop the newest deterministic code. *)
let test_dagorder_fairness_scope () =
  Alcotest.(check bool)
    "dagorder/node.ml is Strict" true
    (Lint.Config.scope_of_path "lib/dagorder/node.ml" = Lint.Config.Strict);
  Alcotest.(check bool)
    "fairness/fairness.ml is Strict" true
    (Lint.Config.scope_of_path "lib/fairness/fairness.ml" = Lint.Config.Strict);
  Alcotest.(check bool)
    "dagorder is in totality scope" true
    (Lint.Config.in_totality_scope "lib/dagorder/node.ml");
  Alcotest.(check bool)
    "fairness is not in totality scope" false
    (Lint.Config.in_totality_scope "lib/fairness/fairness.ml");
  check "unordered traversal fires in lib/fairness"
    [ "lib/fairness/fix.ml:2:D001" ]
    "lib/fairness/fix.ml" d001_bad;
  check "unordered traversal fires in lib/dagorder"
    [ "lib/dagorder/fix.ml:2:D001" ]
    "lib/dagorder/fix.ml" d001_bad;
  (* a wildcard arm over the DAG gossip message type is a P001 finding,
     exactly like the other protocols' dispatchers *)
  let dag_types =
    "type msg = Vertex of int | Vertex_req of int | Vertices of int list\n"
  in
  check_project "wildcard dispatch over the dag message type"
    [ "lib/dagorder/node.ml:4:P001" ]
    [
      ("lib/dagorder/types.ml", dag_types);
      ( "lib/dagorder/node.ml",
        "let handle (_net : Types.msg Sim.Network.t) (m : Types.msg) =\n\
        \  match m with\n\
        \  | Types.Vertex _ -> ()\n\
        \  | _ -> ()\n" );
    ];
  check_project "total dag dispatch is fine" []
    [
      ("lib/dagorder/types.ml", dag_types);
      ( "lib/dagorder/node.ml",
        "let handle (_net : Types.msg Sim.Network.t) (m : Types.msg) =\n\
        \  match m with\n\
        \  | Types.Vertex _ -> ()\n\
        \  | Types.Vertex_req _ -> ()\n\
        \  | Types.Vertices _ -> ()\n" );
    ]

(* S004: allows must keep suppressing something. *)
let test_s004_stale_entries () =
  check_project ~allow:"D001 lib/lyra/ghost.ml\n" "stale lint.allow entry"
    [ "lint.allow:1:S004" ]
    [ ("lib/lyra/fix.ml", "let f x = Int.succ x\n") ];
  check_project "stale inline directive"
    [ "lib/lyra/fix.ml:1:S004" ]
    [ ("lib/lyra/fix.ml", "(* lint: allow D001 *)\nlet f x = Int.succ x\n") ];
  (* a used allow is not stale *)
  check_project "used inline directive is not stale" []
    [
      ( "lib/lyra/fix.ml",
        "let f tbl = Hashtbl.iter (fun _ _ -> ()) tbl (* lint: allow D001 *)\n" );
    ];
  (* directives inside test sources are fixture text, never stale *)
  check_project "test-scope directives are exempt" []
    [ ("test/fix.ml", "(* lint: allow D001 *)\nlet f x = Int.succ x\n") ]

(* ------------------------------------------------------------------ *)
(* The JSON report artifact.                                           *)
(* ------------------------------------------------------------------ *)

let test_json_report () =
  let findings = project d101_fixture in
  let doc = Lint.Reporter.to_json findings in
  (match Metrics.Json.check Lint.Reporter.schema doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "report violates its schema at %s" e);
  (* byte round-trip *)
  (match Metrics.Json.of_string (Metrics.Json.to_string doc) with
  | Error e -> Alcotest.failf "report does not re-parse: %s" e
  | Ok doc' ->
      Alcotest.(check bool) "round-trip preserves the document" true (doc' = doc));
  (* counts cover the whole catalog, in order, and sum to total *)
  let members k d = match Metrics.Json.member k d with Some v -> v | None -> Alcotest.failf "missing %s" k in
  (match members "counts" doc with
  | Metrics.Json.List counts ->
      let rules =
        List.map
          (fun c ->
            match Metrics.Json.member "rule" c with
            | Some (Metrics.Json.Str r) -> r
            | _ -> Alcotest.fail "count without rule")
          counts
      in
      Alcotest.(check (list string))
        "counts enumerate the catalog"
        (List.map Lint.Rules.to_string Lint.Rules.all)
        rules;
      let sum =
        List.fold_left
          (fun acc c ->
            match Metrics.Json.member "count" c with
            | Some (Metrics.Json.Int n) -> acc + n
            | _ -> Alcotest.fail "count without count")
          0 counts
      in
      Alcotest.(check int) "counts sum to total" (List.length findings) sum
  | _ -> Alcotest.fail "counts is not a list");
  (match members "total" doc with
  | Metrics.Json.Int n -> Alcotest.(check int) "total" (List.length findings) n
  | _ -> Alcotest.fail "total is not an int");
  (* the write-validate path *)
  let file = Filename.temp_file "lint_report" ".json" in
  Lint.Reporter.write_json_file ~file findings;
  let content = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  match Metrics.Json.of_string content with
  | Error e -> Alcotest.failf "written artifact does not parse: %s" e
  | Ok doc' -> (
      match Metrics.Json.check Lint.Reporter.schema doc' with
      | Ok () -> ()
      | Error e -> Alcotest.failf "written artifact violates the schema at %s" e)

let suite =
  [
    Alcotest.test_case "D001 fires" `Quick test_d001_fires;
    Alcotest.test_case "D001 scoped" `Quick test_d001_scoped;
    Alcotest.test_case "D001 on Hashtbl.Make instances" `Quick test_d001_functor_fires;
    Alcotest.test_case "D001 clean on instance probes" `Quick test_d001_functor_clean;
    Alcotest.test_case "file-granular Strict scope" `Quick test_file_granular_strict;
    Alcotest.test_case "D001 inline allow" `Quick test_d001_inline_allow;
    Alcotest.test_case "D002 fires" `Quick test_d002_fires;
    Alcotest.test_case "D002 exemptions" `Quick test_d002_exemptions;
    Alcotest.test_case "D003 fires" `Quick test_d003_fires;
    Alcotest.test_case "D003 silent" `Quick test_d003_silent;
    Alcotest.test_case "S001 Obj" `Quick test_s001;
    Alcotest.test_case "S003 warnings" `Quick test_s003;
    Alcotest.test_case "fault-layer fixtures" `Quick test_fault_layer_fixtures;
    Alcotest.test_case "rule filter" `Quick test_rule_filter;
    Alcotest.test_case "S002 + allowlist" `Quick test_s002_and_allowlist;
    Alcotest.test_case "allowlist parsing" `Quick test_allow_parsing;
    Alcotest.test_case "shipped allowlist parses" `Quick test_shipped_allowlist_parses;
    Alcotest.test_case "D001 in tool scope" `Quick test_d001_tool_scope;
    Alcotest.test_case "D101 cross-module chain" `Quick test_d101_cross_module;
    Alcotest.test_case "D101 boundary only" `Quick test_d101_boundary_only;
    Alcotest.test_case "D101 tool root" `Quick test_d101_tool_root;
    Alcotest.test_case "D101 seed suppression" `Quick test_d101_seed_suppression;
    Alcotest.test_case "D101 untainted" `Quick test_d101_untainted;
    Alcotest.test_case "D102 direct" `Quick test_d102_direct;
    Alcotest.test_case "D102 cross-module" `Quick test_d102_cross_module;
    Alcotest.test_case "D102 scoped" `Quick test_d102_scoped;
    Alcotest.test_case "P001 fires" `Quick test_p001_fires;
    Alcotest.test_case "P001 silent" `Quick test_p001_silent;
    Alcotest.test_case "dagorder/fairness scope" `Quick
      test_dagorder_fairness_scope;
    Alcotest.test_case "S004 staleness" `Quick test_s004_stale_entries;
    Alcotest.test_case "JSON report" `Quick test_json_report;
  ]
