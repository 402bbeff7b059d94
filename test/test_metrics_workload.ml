(* Statistics helpers, recorders, table rendering, and client pools. *)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Metrics.Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Metrics.Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Metrics.Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Metrics.Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "p25 interp" 2.0 (Metrics.Stats.percentile 25.0 xs);
  let lo, hi = Metrics.Stats.min_max xs in
  Alcotest.(check (float 1e-9)) "min" 1.0 lo;
  Alcotest.(check (float 1e-9)) "max" 5.0 hi

let test_stats_edges () =
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Metrics.Stats.mean [||]);
  Alcotest.(check bool) "bad p raises" true
    (try ignore (Metrics.Stats.percentile 150.0 [| 1.0 |]); false
     with Invalid_argument _ -> true)

(* The empty summary is pinned as all-zero (not an exception): report
   sites — and the explorer's oracle layer — read summaries of runs
   that may legitimately commit nothing. *)
let test_stats_empty_summary () =
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0
    (Metrics.Stats.percentile 50.0 [||]);
  Alcotest.(check bool) "bad p still raises on empty" true
    (try ignore (Metrics.Stats.percentile 150.0 [||]); false
     with Invalid_argument _ -> true);
  let mean, p50, p95, p99, max_v = Metrics.Stats.summary_sorted [||] in
  Alcotest.(check (float 1e-9)) "mean" 0.0 mean;
  Alcotest.(check (float 1e-9)) "p50" 0.0 p50;
  Alcotest.(check (float 1e-9)) "p95" 0.0 p95;
  Alcotest.(check (float 1e-9)) "p99" 0.0 p99;
  Alcotest.(check (float 1e-9)) "max" 0.0 max_v;
  let r = Metrics.Recorder.create () in
  let mean, _, _, _, max_v = Metrics.Recorder.summary r in
  Alcotest.(check (float 1e-9)) "recorder mean" 0.0 mean;
  Alcotest.(check (float 1e-9)) "recorder max" 0.0 max_v;
  Alcotest.(check (float 1e-9)) "recorder percentile" 0.0
    (Metrics.Recorder.percentile 99.0 r);
  (* Non-empty behaviour is unchanged. *)
  Metrics.Recorder.record r 4.0;
  Metrics.Recorder.record r 2.0;
  let mean, p50, _, _, max_v = Metrics.Recorder.summary r in
  Alcotest.(check (float 1e-9)) "mean back" 3.0 mean;
  Alcotest.(check (float 1e-9)) "median back" 3.0 p50;
  Alcotest.(check (float 1e-9)) "max back" 4.0 max_v

let test_recorder_grows () =
  let r = Metrics.Recorder.create () in
  Alcotest.(check bool) "empty" true (Metrics.Recorder.is_empty r);
  for i = 1 to 5_000 do
    Metrics.Recorder.record r (float_of_int i)
  done;
  Alcotest.(check int) "count" 5_000 (Metrics.Recorder.count r);
  Alcotest.(check (float 1e-6)) "mean" 2500.5 (Metrics.Recorder.mean r);
  Metrics.Recorder.clear r;
  Alcotest.(check int) "cleared" 0 (Metrics.Recorder.count r)

(* A recorder costs a few words until its first sample, then grows
   by doubling. Against a list reference across the doublings (2, 4,
   ..., 1 024, 2 048) and across a cap, where it turns streaming on
   the (cap+1)-th sample as before. *)
let test_recorder_starts_empty () =
  List.iter
    (fun cap ->
      let r = Metrics.Recorder.create ?cap () in
      let words =
        (* lint: allow S001 a read-only size probe: reachable_words takes an Obj.t *)
        Obj.reachable_words (Obj.repr r)
      in
      Alcotest.(check bool) (Printf.sprintf "fresh: %d words < 16" words) true (words < 16))
    [ None; Some 8; Some 1_000_000 ];
  List.iter
    (fun size ->
      let r = Metrics.Recorder.create () and model = ref [] in
      for i = 1 to size do
        let x = float_of_int ((i * 7919) mod 1009) in
        Metrics.Recorder.record r x;
        model := x :: !model
      done;
      let model = Array.of_list (List.rev !model) in
      let name s = Printf.sprintf "%d samples: %s" size s in
      Alcotest.(check int) (name "count") size (Metrics.Recorder.count r);
      Alcotest.(check (array (float 0.0))) (name "to_array") model
        (Metrics.Recorder.to_array r);
      Alcotest.(check (float 1e-9)) (name "mean") (Metrics.Stats.mean model)
        (Metrics.Recorder.mean r);
      List.iter
        (fun p ->
          Alcotest.(check (float 1e-9)) (name (Printf.sprintf "p%g" p))
            (Metrics.Stats.percentile p model) (Metrics.Recorder.percentile p r))
        [ 0.0; 50.0; 95.0; 99.0; 100.0 ])
    [ 0; 1; 2; 3; 4; 5; 1_023; 1_024; 1_025; 2_049 ];
  List.iter
    (fun cap ->
      let r = Metrics.Recorder.create ~cap () in
      for i = 1 to cap do
        Metrics.Recorder.record r (float_of_int i)
      done;
      Alcotest.(check bool) (Printf.sprintf "cap %d: exact at cap" cap) false
        (Metrics.Recorder.is_streaming r);
      Alcotest.(check int) (Printf.sprintf "cap %d: retained" cap) cap
        (Metrics.Recorder.retained_samples r);
      Metrics.Recorder.record r 0.0;
      Alcotest.(check bool) (Printf.sprintf "cap %d: streaming past cap" cap) true
        (Metrics.Recorder.is_streaming r);
      Alcotest.(check int) (Printf.sprintf "cap %d: count" cap) (cap + 1)
        (Metrics.Recorder.count r);
      Alcotest.(check (float 1e-9)) (Printf.sprintf "cap %d: min" cap) 0.0
        (Metrics.Recorder.percentile 0.0 r))
    [ 8; 9; 16; 1_024; 1_500 ]

let test_table_render () =
  let s =
    Metrics.Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has separator" true (String.contains s '-');
  Alcotest.(check int) "4 lines" 4
    (List.length (String.split_on_char '\n' (String.trim s)))

(* ------------------------------------------------------------------ *)
(* Phase tracker: milestones in, spans out.                            *)
(* ------------------------------------------------------------------ *)

(* propose → mid → done, with two spans ending at [done]. *)
let tracker () =
  Metrics.Phases.create
    [ ("first", "propose", "mid"); ("second", "mid", "done"); ("e2e", "propose", "done") ]

let samples ph label =
  Metrics.Recorder.to_array (List.assoc label (Metrics.Phases.pairs ph))

let floats = Alcotest.(array (float 1e-12))

let test_phases_first_stamp_wins () =
  let ph = tracker () in
  Metrics.Phases.start ph ~key:1 ~now:0;
  Metrics.Phases.stamp ph ~key:1 "mid" ~now:10_000;
  Metrics.Phases.stamp ph ~key:1 "mid" ~now:20_000;
  Metrics.Phases.stamp ph ~key:1 "done" ~now:30_000;
  Alcotest.check floats "first" [| 10.0 |] (samples ph "first");
  Alcotest.check floats "second starts at the first mid" [| 20.0 |]
    (samples ph "second");
  Alcotest.check floats "e2e" [| 30.0 |] (samples ph "e2e")

let test_phases_unstamped_start () =
  let ph = tracker () in
  Metrics.Phases.start ph ~key:4 ~now:1_000;
  Metrics.Phases.stamp ph ~key:4 "done" ~now:3_500;
  Alcotest.check floats "first never ended" [||] (samples ph "first");
  Alcotest.check floats "second never started" [||] (samples ph "second");
  Alcotest.check floats "e2e" [| 2.5 |] (samples ph "e2e")

let test_phases_entries_freed () =
  let ph = tracker () in
  List.iter (fun key -> Metrics.Phases.start ph ~key ~now:0) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "open" [ 1; 2; 3 ] (Metrics.Phases.open_keys ph);
  Metrics.Phases.stamp ph ~key:1 "mid" ~now:5;
  Alcotest.(check (list int)) "mid keeps it" [ 1; 2; 3 ] (Metrics.Phases.open_keys ph);
  Metrics.Phases.stamp ph ~key:1 "done" ~now:9;
  Metrics.Phases.drop ph ~key:2;
  Alcotest.(check (list int)) "done and drop free" [ 3 ] (Metrics.Phases.open_keys ph);
  (* A freed key records nothing more. *)
  Metrics.Phases.stamp ph ~key:2 "done" ~now:50;
  Metrics.Phases.stamp ph ~key:1 "done" ~now:50;
  Alcotest.(check int) "one e2e sample" 1 (Array.length (samples ph "e2e"));
  Alcotest.check_raises "unknown milestone"
    (Invalid_argument "Phases: unknown milestone decide") (fun () ->
      Metrics.Phases.stamp ph ~key:3 "decide" ~now:60)

let test_phases_declared_order () =
  Alcotest.(check (list string))
    "labels" [ "first"; "second"; "e2e" ]
    (List.map fst (Metrics.Phases.pairs (tracker ())))

let test_closed_pool () =
  let e = Sim.Engine.create () in
  let submitted = ref [] in
  let counter = ref 0 in
  let submit ~payload:_ =
    incr counter;
    let id = Printf.sprintf "tx%d" !counter in
    submitted := id :: !submitted;
    id
  in
  let pool =
    Workload.Clients.Closed.create ~clients:3 ~payload:(fun () -> "p") ~submit ()
  in
  Workload.Clients.Closed.start pool;
  Alcotest.(check int) "3 outstanding" 3 (Workload.Clients.Closed.submitted pool);
  (* completing one releases exactly one new submission *)
  Workload.Clients.Closed.tx_done pool "tx1";
  Sim.Engine.run_until_idle e;
  Alcotest.(check int) "one more" 4 (Workload.Clients.Closed.submitted pool);
  Alcotest.(check int) "completed" 1 (Workload.Clients.Closed.completed pool);
  (* unknown ids are ignored *)
  Workload.Clients.Closed.tx_done pool "bogus";
  Alcotest.(check int) "unchanged" 4 (Workload.Clients.Closed.submitted pool)

let test_open_rate () =
  let e = Sim.Engine.create () in
  let counter = ref 0 in
  let submit ~payload:_ = incr counter; "x" in
  let gen =
    Workload.Clients.Open.create e ~rate_per_sec:1000.0 ~payload:(fun () -> "p")
      ~submit ()
  in
  Workload.Clients.Open.start gen;
  Sim.Engine.run e ~until:1_000_000;
  let n = Workload.Clients.Open.submitted gen in
  Alcotest.(check bool) "~1000 arrivals" true (n > 800 && n < 1200)

let prop_open_arrival_concentration =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"open loop: arrivals concentrate at rate*horizon"
       ~count:20
       QCheck.(int_range 1 10_000)
       (fun seed ->
         let e = Sim.Engine.create ~seed:(Int64.of_int seed) () in
         let counter = ref 0 in
         let submit ~payload:_ = incr counter; "x" in
         let gen =
           Workload.Clients.Open.create e ~rate_per_sec:500.0
             ~payload:(fun () -> "p") ~submit ()
         in
         Workload.Clients.Open.start gen;
         Sim.Engine.run e ~until:2_000_000;
         (* Poisson(1000): 1000 ± 200 is ~6.3 sigma *)
         let n = Workload.Clients.Open.submitted gen in
         n > 800 && n < 1200))

(* ------------------------------------------------------------------ *)
(* Streaming recorder (P² past the sample cap).                        *)
(* ------------------------------------------------------------------ *)

let test_recorder_streaming_mode () =
  let r = Metrics.Recorder.create ~cap:64 () in
  for i = 1 to 63 do
    Metrics.Recorder.record r (float_of_int i)
  done;
  Alcotest.(check bool) "still exact" false (Metrics.Recorder.is_streaming r);
  Alcotest.(check int) "retained" 63 (Metrics.Recorder.retained_samples r);
  for i = 64 to 10_000 do
    Metrics.Recorder.record r (float_of_int i)
  done;
  Alcotest.(check bool) "streaming" true (Metrics.Recorder.is_streaming r);
  Alcotest.(check int) "nothing retained" 0 (Metrics.Recorder.retained_samples r);
  Alcotest.(check int) "count exact" 10_000 (Metrics.Recorder.count r);
  Alcotest.(check (float 1e-6)) "mean exact" 5000.5 (Metrics.Recorder.mean r);
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0
    (Metrics.Recorder.percentile 0.0 r);
  Alcotest.(check (float 1e-9)) "p100 is max" 10_000.0
    (Metrics.Recorder.percentile 100.0 r);
  (* estimates for the tracked grid stay close on a uniform ramp *)
  Alcotest.(check bool) "p50 close" true
    (Float.abs (Metrics.Recorder.percentile 50.0 r -. 5000.0) < 200.0);
  Alcotest.(check bool) "p99 close" true
    (Float.abs (Metrics.Recorder.percentile 99.0 r -. 9900.0) < 200.0);
  (* raw-sample views are gone *)
  Alcotest.(check bool) "to_array raises" true
    (try ignore (Metrics.Recorder.to_array r); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "sorted raises" true
    (try ignore (Metrics.Recorder.sorted r); false
     with Invalid_argument _ -> true);
  (* clear returns to exact mode *)
  Metrics.Recorder.clear r;
  Alcotest.(check bool) "cleared to exact" false (Metrics.Recorder.is_streaming r);
  Alcotest.(check int) "cleared count" 0 (Metrics.Recorder.count r);
  Metrics.Recorder.record r 3.0;
  Alcotest.(check (float 1e-9)) "exact again" 3.0
    (Metrics.Recorder.percentile 50.0 r);
  Alcotest.(check int) "exact retains again" 1
    (Metrics.Recorder.retained_samples r)

let test_recorder_small_cap_rejected () =
  Alcotest.(check bool) "cap<8 raises" true
    (try ignore (Metrics.Recorder.create ~cap:4 ()); false
     with Invalid_argument _ -> true)

let prop_streaming_matches_exact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"recorder: streaming percentiles track exact mode" ~count:30
       QCheck.(int_range 1 100_000)
       (fun seed ->
         let rng = Crypto.Rng.create (Int64.of_int seed) in
         let exact = Metrics.Recorder.create () in
         let stream = Metrics.Recorder.create ~cap:256 () in
         for _ = 1 to 4_000 do
           let x = Crypto.Rng.float rng *. 100.0 in
           Metrics.Recorder.record exact x;
           Metrics.Recorder.record stream x
         done;
         Metrics.Recorder.is_streaming stream
         && List.for_all
              (fun p ->
                Float.abs
                  (Metrics.Recorder.percentile p stream
                  -. Metrics.Recorder.percentile p exact)
                < 6.0)
              [ 50.0; 90.0; 95.0; 99.0 ]
         && Float.abs
              (Metrics.Recorder.mean stream -. Metrics.Recorder.mean exact)
            < 1e-6))

let test_p2_exact_below_five () =
  let m = Metrics.P2.create ~p:0.5 in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Metrics.P2.value m);
  Metrics.P2.add m 10.0;
  Metrics.P2.add m 2.0;
  Metrics.P2.add m 6.0;
  (* below 5 samples the estimator answers exactly from the buffer *)
  Alcotest.(check (float 1e-9)) "median of 3" 6.0 (Metrics.P2.value m);
  Alcotest.(check bool) "bad p raises" true
    (try ignore (Metrics.P2.create ~p:1.0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Zipf sampling.                                                      *)
(* ------------------------------------------------------------------ *)

let test_zipf_skew () =
  let rng = Crypto.Rng.create 11L in
  let z = Workload.Zipf.create ~n:100 ~s:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Workload.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 dominates and the tail is thin *)
  Alcotest.(check bool) "rank0 hot" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "head heavy" true
    (counts.(0) + counts.(1) + counts.(2) > 20_000 / 3);
  (* s = 0 degenerates to uniform: no rank takes even 5% *)
  let u = Workload.Zipf.create ~n:100 ~s:0.0 in
  let ucounts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Workload.Zipf.sample u rng in
    ucounts.(k) <- ucounts.(k) + 1
  done;
  Alcotest.(check bool) "uniform" true
    (Array.for_all (fun c -> c < 1_000) ucounts)

let test_payload_generators () =
  let rng = Crypto.Rng.create 9L in
  let fixed = Workload.Clients.fixed_payload ~size:32 rng in
  Alcotest.(check int) "fixed size" 32 (String.length (fixed ()))

(* ------------------------------------------------------------------ *)
(* Typed JSON descriptions: schema and value come from one list.       *)
(* ------------------------------------------------------------------ *)

(* Every constructor once: a row's value, written and re-read, must
   match the schema derived from the same description — including NaN
   (nullable) and None cells, control characters in strings and nested
   object lists. *)
let prop_json_desc_round_trip =
  let desc =
    Metrics.Json.(
      obj
        [
          field "i" int (fun ((i, _, _, _), _) -> i);
          field "x" (nullable float) (fun ((_, x, _, _), _) -> x);
          field "s" str (fun ((_, _, s, _), _) -> s);
          field "b" bool (fun ((_, _, _, b), _) -> b);
          field "o" (option int) (fun (_, (o, _)) -> o);
          field "xs"
            (list (obj [ field "v" (nullable float) Fun.id; field "ok" bool Float.is_finite ]))
            (fun (_, (_, xs)) -> xs);
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json: value d row re-reads under schema d"
       ~count:300
       QCheck.(pair (quad int float string bool) (pair (option small_int) (small_list float)))
       (fun row ->
         List.for_all
           (fun indent ->
             match
               Metrics.Json.of_string
                 (Metrics.Json.to_string ~indent (Metrics.Json.value desc row))
             with
             | Ok v -> Metrics.Json.check (Metrics.Json.schema desc) v = Ok ()
             | Error _ -> false)
           [ true; false ]))

(* Readable descriptions: a record reads back what it renders (NaN in a
   nullable float included), a missing member falls back to its default
   or fails with its path, and a tagged union dispatches on its tag. *)
let test_json_desc_reads () =
  let open Metrics.Json in
  let pt =
    record (fun on x tags -> (on, x, tags))
    |> mem "on" bool (fun (on, _, _) -> on)
    |> mem "x" (nullable float) (fun (_, x, _) -> x)
    |> mem "tags" ~default:[] (list str) (fun (_, _, tags) -> tags)
    |> seal
  in
  let at = function `Dot p | `Span (p, _) -> p in
  let shape =
    tagged "kind"
      (function `Dot _ -> "dot" | `Span _ -> "span")
      [
        ("dot", record (fun p -> `Dot p) |> mem "at" pt at |> seal);
        ( "span",
          record (fun p n -> `Span (p, n))
          |> mem "at" pt at
          |> mem "n" (conv Int64.to_int (fun i -> Ok (Int64.of_int i)) int)
               (function `Span (_, n) -> n | `Dot _ -> 0L)
          |> seal );
      ]
  in
  let expect_error label want v =
    match read shape v with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e -> Alcotest.(check string) label want e
  in
  let span = `Span ((true, Float.nan, [ "a"; "b" ]), 7L) in
  let v = value shape span in
  Alcotest.(check bool) "schema" true (check (schema shape) v = Ok ());
  (match read shape v with
  | Ok (`Span ((true, x, [ "a"; "b" ]), 7L)) when Float.is_nan x -> ()
  | Ok _ | Error _ -> Alcotest.fail "span did not read back");
  let dot members = Obj [ ("kind", Str "dot"); ("at", Obj members) ] in
  (match read shape (dot [ ("on", Bool false); ("x", Int 2) ]) with
  | Ok (`Dot (false, 2.0, [])) -> ()
  | Ok _ | Error _ -> Alcotest.fail "default member did not apply");
  expect_error "missing member" {|$.at: missing key "x"|} (dot [ ("on", Bool true) ]);
  expect_error "wrong leaf" "$.at.on: expected bool" (dot [ ("on", Int 1); ("x", Int 2) ]);
  expect_error "unknown tag" {|$: expected a known "kind" tag|}
    (Obj [ ("kind", Str "arc") ]);
  expect_error "nested list" "$.at.tags[1]: expected string"
    (dot [ ("on", Bool true); ("x", Int 2); ("tags", List [ Str "a"; Int 3 ]) ])

let suite =
  [
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats edges" `Quick test_stats_edges;
    Alcotest.test_case "stats empty summary" `Quick test_stats_empty_summary;
    Alcotest.test_case "recorder grows" `Quick test_recorder_grows;
    Alcotest.test_case "recorder starts empty" `Quick test_recorder_starts_empty;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "phases first stamp wins" `Quick test_phases_first_stamp_wins;
    Alcotest.test_case "phases unstamped start" `Quick test_phases_unstamped_start;
    Alcotest.test_case "phases entries freed" `Quick test_phases_entries_freed;
    Alcotest.test_case "phases declared order" `Quick test_phases_declared_order;
    Alcotest.test_case "closed pool" `Quick test_closed_pool;
    Alcotest.test_case "open rate" `Quick test_open_rate;
    prop_open_arrival_concentration;
    Alcotest.test_case "recorder streaming mode" `Quick
      test_recorder_streaming_mode;
    Alcotest.test_case "recorder cap validation" `Quick
      test_recorder_small_cap_rejected;
    prop_streaming_matches_exact;
    Alcotest.test_case "p2 small-sample exactness" `Quick
      test_p2_exact_below_five;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "payload generators" `Quick test_payload_generators;
    prop_json_desc_round_trip;
    Alcotest.test_case "json: readable descriptions" `Quick test_json_desc_reads;
  ]
