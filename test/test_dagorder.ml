(* The pure DAG core of the leaderless fair-ordering baseline
   (lib/dagorder): wave commits and the receive-report linearization
   must be a function of the *set* of vertices only — QCheck inserts
   the same random DAG in different orders and demands bit-identical
   delivery sequences — and the delivered batches are always a
   duplicate-free subset of the inserted ones. A hand-built two-wave
   DAG pins the median-of-reports arithmetic. *)

let n = 4

let f = 1

let mk_batch ~creator ~index =
  {
    Lyra.Types.iid = { Lyra.Types.proposer = creator; index };
    txs =
      [|
        {
          Lyra.Types.tx_id = Printf.sprintf "t%d-%d" creator index;
          payload = "x";
          submitted_at = 0;
          origin = creator;
        };
      |];
    obf = Lyra.Types.Clear;
    created_at = 0;
  }

(* Seeded random DAG with full participation: every creator has a
   vertex in every round and refs are a random ≥-quorum subset of the
   previous round — except that half the DAGs have a straggler whose
   vertices no one links strongly, reachable only through weak links
   (half of the others' vertices from round 2 on link the straggler's
   vertex two rounds back). Vertices embed 0–2 batches, and each
   earlier batch is reported (at a random local time) with probability
   3/4 — so some batches linearize, some stay deferred below the report
   quorum. *)
let build_vertices rng =
  let rounds = 2 + Crypto.Rng.int rng 5 in
  let straggler = if Crypto.Rng.int rng 2 = 0 then Some (Crypto.Rng.int rng n) else None in
  let next_index = Array.make n 0 in
  let seen_keys = ref [] in
  let vertices = ref [] in
  for round = 0 to rounds - 1 do
    let round_keys = ref [] in
    for creator = 0 to n - 1 do
      let refs =
        if round = 0 then []
        else
          (* drop at most one of the four parents: |refs| ∈ {3, 4} ≥ q *)
          let drop =
            match straggler with
            | Some s -> s
            | None -> Crypto.Rng.int rng (n + 1)
          in
          List.filter (fun c -> c <> drop) [ 0; 1; 2; 3 ]
      in
      let weak =
        match straggler with
        | Some s when round >= 2 && creator <> s && Crypto.Rng.int rng 2 = 0 ->
            [ (round - 2, s) ]
        | _ -> []
      in
      let batches =
        List.init (Crypto.Rng.int rng 3) (fun _ ->
            let index = next_index.(creator) in
            next_index.(creator) <- index + 1;
            mk_batch ~creator ~index)
      in
      let own_keys = List.map Dagorder.Dag.key_of_batch batches in
      let reports =
        List.filter_map
          (fun key ->
            if Crypto.Rng.int rng 4 > 0 then
              Some (key, Crypto.Rng.int rng 1_000_000)
            else None)
          !seen_keys
        @ List.map (fun k -> (k, Crypto.Rng.int rng 1_000_000)) own_keys
      in
      let reports =
        List.sort (fun (a, _) (b, _) -> String.compare a b) reports
      in
      round_keys := own_keys @ !round_keys;
      vertices :=
        { Dagorder.Dag.round; creator; refs; weak; batches; reports } :: !vertices
    done;
    seen_keys := !seen_keys @ !round_keys
  done;
  List.rev !vertices

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Crypto.Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Insert with a retry buffer, the way the node's network layer does:
   [`Missing] vertices wait until their parents land. Returns the
   deliveries in the order [add] released them. *)
let insert_all t vs =
  let deliveries = ref [] in
  let pending = ref vs in
  let progress = ref true in
  while !progress && not (List.is_empty !pending) do
    progress := false;
    pending :=
      List.filter
        (fun v ->
          match Dagorder.Dag.add t v with
          | `Added ds ->
              deliveries := !deliveries @ ds;
              progress := true;
              false
          | `Duplicate ->
              progress := true;
              false
          | `Missing _ -> true)
        !pending
  done;
  (!deliveries, List.length !pending)

let project (d : Dagorder.Dag.delivery) =
  ( Dagorder.Dag.key_of_batch d.batch,
    d.embed_round,
    d.anchor_round,
    d.median_receive_us )

let prop_permutation =
  QCheck.Test.make
    ~name:"dag: deliveries are a duplicate-free subset of inserted batches"
    ~count:150
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let vs = build_vertices rng in
      let t = Dagorder.Dag.create ~n ~f () in
      let ds, stuck = insert_all t vs in
      let inserted_keys =
        List.concat_map
          (fun (v : Dagorder.Dag.vertex) ->
            List.map Dagorder.Dag.key_of_batch v.batches)
          vs
      in
      let delivered_keys = List.map (fun (k, _, _, _) -> k) (List.map project ds) in
      let unique l = List.length (List.sort_uniq String.compare l) in
      stuck = 0
      && unique delivered_keys = List.length delivered_keys
      && List.for_all (fun k -> List.mem k inserted_keys) delivered_keys
      && Dagorder.Dag.delivered_count t = List.length ds
      && List.map project (Dagorder.Dag.delivered t) = List.map project ds)

let prop_order_invariant =
  QCheck.Test.make
    ~name:"dag: linearization is invariant under insertion order" ~count:150
    QCheck.(pair (int_bound 0xFF_FFFF) (int_bound 0xFF_FFFF))
    (fun (seed, shuffle_seed) ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let vs = build_vertices rng in
      let t1 = Dagorder.Dag.create ~n ~f () in
      let ds1, stuck1 = insert_all t1 vs in
      let arr = Array.of_list vs in
      shuffle (Crypto.Rng.create (Int64.of_int shuffle_seed)) arr;
      let t2 = Dagorder.Dag.create ~n ~f () in
      let ds2, stuck2 = insert_all t2 (Array.to_list arr) in
      stuck1 = 0 && stuck2 = 0
      && List.map project ds1 = List.map project ds2
      && Dagorder.Dag.last_committed_wave t1
         = Dagorder.Dag.last_committed_wave t2
      && Dagorder.Dag.deferred t1 = Dagorder.Dag.deferred t2)

(* Hand-built two-wave DAG: one batch in creator 0's round-0 vertex,
   receive reports 10/20/30/40 µs spread over the four creators. The
   wave-0 anchor's history holds only one report, so the batch must
   wait for wave 1 (anchor round 2) and linearize at the lower median
   of the four reports. *)
let test_two_wave_median () =
  let t = Dagorder.Dag.create ~n ~f () in
  let b = mk_batch ~creator:0 ~index:0 in
  let key = Dagorder.Dag.key_of_batch b in
  let all = [ 0; 1; 2; 3 ] in
  let vertex ~round ~creator ~batches ~reports =
    {
      Dagorder.Dag.round;
      creator;
      refs = (if round = 0 then [] else all);
      weak = [];
      batches;
      reports;
    }
  in
  let add v =
    match Dagorder.Dag.add t v with
    | `Added ds -> ds
    | `Duplicate | `Missing _ ->
        Alcotest.failf "vertex (%d,%d) not added" v.Dagorder.Dag.round
          v.Dagorder.Dag.creator
  in
  let deliveries = ref [] in
  List.iter
    (fun round ->
      List.iter
        (fun creator ->
          let batches = if round = 0 && creator = 0 then [ b ] else [] in
          let reports =
            match (round, creator) with
            | 0, 0 -> [ (key, 10) ]
            | 1, 1 -> [ (key, 20) ]
            | 1, 2 -> [ (key, 30) ]
            | 1, 3 -> [ (key, 40) ]
            | _ -> []
          in
          deliveries :=
            !deliveries @ add (vertex ~round ~creator ~batches ~reports))
        all)
    [ 0; 1; 2; 3 ];
  Alcotest.(check int) "two waves committed" 1 (Dagorder.Dag.last_committed_wave t);
  match !deliveries with
  | [ d ] ->
      Alcotest.(check string) "delivered the batch" key
        (Dagorder.Dag.key_of_batch d.batch);
      Alcotest.(check int) "embed round" 0 d.embed_round;
      Alcotest.(check int) "committed by the wave-1 anchor" 2 d.anchor_round;
      Alcotest.(check int) "lower median of 10/20/30/40" 20
        d.median_receive_us;
      Alcotest.(check int) "nothing deferred" 0 (Dagorder.Dag.deferred t)
  | ds -> Alcotest.failf "expected 1 delivery, got %d" (List.length ds)

(* The buffering contract around [add]. *)
let test_add_contract () =
  let t = Dagorder.Dag.create ~n ~f () in
  let v1 =
    { Dagorder.Dag.round = 1; creator = 0; refs = [ 0; 1; 2 ]; weak = []; batches = [];
      reports = [] }
  in
  (match Dagorder.Dag.add t v1 with
  | `Missing parents ->
      Alcotest.(check (list (pair int int)))
        "missing parents listed, ascending"
        [ (0, 0); (0, 1); (0, 2) ]
        parents
  | `Added _ | `Duplicate -> Alcotest.fail "orphan vertex must be Missing");
  let v0 =
    { Dagorder.Dag.round = 0; creator = 0; refs = []; weak = []; batches = []; reports = [] }
  in
  (match Dagorder.Dag.add t v0 with
  | `Added _ -> ()
  | `Duplicate | `Missing _ -> Alcotest.fail "round-0 vertex must insert");
  (match Dagorder.Dag.add t v0 with
  | `Duplicate -> ()
  | `Added _ | `Missing _ -> Alcotest.fail "re-insert must be Duplicate");
  Alcotest.(check bool) "mem" true (Dagorder.Dag.mem t ~round:0 ~creator:0);
  Alcotest.(check int) "round size" 1 (Dagorder.Dag.round_size t 0);
  Alcotest.(check (list int)) "round creators" [ 0 ]
    (Dagorder.Dag.round_creators t 0);
  Alcotest.(check int) "no quorum round yet" (-1) (Dagorder.Dag.max_quorum_round t);
  (* Weak parents gate insertion like strong ones and must sit below
     round-1. *)
  let vertex round creator refs weak =
    { Dagorder.Dag.round; creator; refs; weak; batches = []; reports = [] }
  in
  List.iter (fun c -> ignore (Dagorder.Dag.add t (vertex 0 c [] []))) [ 1; 2 ];
  List.iter
    (fun c -> ignore (Dagorder.Dag.add t (vertex 1 c [ 0; 1; 2 ] [])))
    [ 0; 1; 2 ];
  (match Dagorder.Dag.add t (vertex 2 0 [ 0; 1; 2 ] [ (0, 3) ]) with
  | `Missing parents ->
      Alcotest.(check (list (pair int int))) "missing weak parent" [ (0, 3) ] parents
  | `Added _ | `Duplicate -> Alcotest.fail "absent weak parent must be Missing");
  Alcotest.check_raises "weak link not below round-1"
    (Invalid_argument "Dag.add: weak link out of range") (fun () ->
      ignore (Dagorder.Dag.add t (vertex 2 1 [ 0; 1; 2 ] [ (1, 3) ])))

(* Regression: with rounds paced faster than the one-way delay, the
   round-(r-1) vertices a replica links are the first n-f to arrive, so
   a far replica's vertices were never in any committed anchor's
   history — its batches and receive reports never counted and its
   clients committed nothing. Weak links to orphaned vertices pull
   them into later histories: every origin must commit. *)
let test_fast_rounds_every_origin_commits () =
  List.iter
    (fun n ->
      let r =
        Harness.Scenario.run ~seed:7L
          (Protocol.Dagorder_adapter.make
             ~tweak:(fun c -> { c with Dagorder.Node.round_interval_us = 20_000 })
             ())
          ~n ~load:(Harness.Scenario.Closed 2) ~duration_us:3_000_000 ()
      in
      Alcotest.(check bool) (Printf.sprintf "n=%d prefix safe" n) true r.prefix_safe;
      Array.iteri
        (fun origin k ->
          if k = 0 then
            Alcotest.failf "n=%d: origin %d committed 0 of %d submitted" n origin
              r.submitted_by.(origin))
        r.committed_own)
    [ 4; 7; 16 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_permutation;
    QCheck_alcotest.to_alcotest prop_order_invariant;
    Alcotest.test_case "two-wave median linearization" `Quick
      test_two_wave_median;
    Alcotest.test_case "add contract (missing/duplicate)" `Quick
      test_add_contract;
    Alcotest.test_case "fast rounds: every origin commits" `Quick
      test_fast_rounds_every_origin_commits;
  ]
