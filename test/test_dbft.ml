(* The DBFT substrate: quorum arithmetic, binary-value broadcast, and
   the binary consensus protocol itself under faults and random
   schedules. *)

let test_quorums () =
  List.iter
    (fun (n, f) -> Alcotest.(check int) (Printf.sprintf "f(%d)" n) f (Dbft.Quorums.max_faulty n))
    [ (1, 0); (3, 0); (4, 1); (6, 1); (7, 2); (10, 3); (16, 5); (31, 10); (100, 33) ];
  Alcotest.(check int) "quorum 4" 3 (Dbft.Quorums.quorum 4);
  Alcotest.(check int) "quorum 100" 67 (Dbft.Quorums.quorum 100);
  Alcotest.(check int) "supermajority 100" 67 (Dbft.Quorums.supermajority 100);
  Alcotest.(check int) "supermajority 10" 7 (Dbft.Quorums.supermajority 10)

let test_aux_union () =
  let in_bin b = b = 1 in
  (* enough senders, all inside bin_values *)
  Alcotest.(check (option (list int))) "singleton" (Some [ 1 ])
    (Dbft.Quorums.aux_union ~need:3 ~in_bin [ [ 1 ]; [ 1 ]; [ 1 ] ]);
  (* AUX sets containing values outside bin_values are ignored *)
  Alcotest.(check (option (list int))) "filtered" None
    (Dbft.Quorums.aux_union ~need:3 ~in_bin [ [ 1 ]; [ 0 ]; [ 0; 1 ] ]);
  let both b = b = 0 || b = 1 in
  Alcotest.(check (option (list int))) "union" (Some [ 0; 1 ])
    (Dbft.Quorums.aux_union ~need:3 ~in_bin:both [ [ 1 ]; [ 0 ]; [ 0; 1 ] ]);
  Alcotest.(check (option (list int))) "too few" None
    (Dbft.Quorums.aux_union ~need:3 ~in_bin [ [ 1 ]; [ 1 ] ])

(* The counters the round machine keeps answer exactly what the list
   model answers: random AUX sets (duplicates and [[]] included), a
   random bin_values state and quorum size. *)
let prop_aux_counters =
  QCheck.Test.make ~name:"aux counters = aux_union" ~count:500
    QCheck.(
      triple (int_bound 3) (int_bound 8)
        (list_of_size Gen.(0 -- 10) (list_of_size Gen.(0 -- 3) (int_bound 1))))
    (fun (bin, need, auxs) ->
      let counts = Array.make 4 0 in
      List.iter
        (fun values ->
          let m = Dbft.Quorums.aux_set values in
          counts.(m) <- counts.(m) + 1)
        auxs;
      let in_bin v = Int.equal ((bin lsr v) land 1) 1 in
      let expect =
        match Dbft.Quorums.aux_union ~need ~in_bin auxs with
        | None -> -1
        | Some union -> Dbft.Quorums.aux_set union
      in
      Int.equal expect (Dbft.Quorums.aux_quorum counts ~need ~bin))

let test_bv_basics () =
  let echoes = ref [] in
  let bv = Dbft.Bv_broadcast.create ~n:4 ~echo:(fun b -> echoes := b :: !echoes) in
  Dbft.Bv_broadcast.input bv 1;
  Alcotest.(check (list int)) "echoed own" [ 1 ] !echoes;
  (* own echo comes back plus two peers: 3 = 2f+1 -> delivery *)
  Dbft.Bv_broadcast.on_est bv ~src:0 1;
  Dbft.Bv_broadcast.on_est bv ~src:1 1;
  Alcotest.(check bool) "not yet" false (Dbft.Bv_broadcast.delivered bv 1);
  Dbft.Bv_broadcast.on_est bv ~src:2 1;
  Alcotest.(check bool) "delivered 1" true (Dbft.Bv_broadcast.delivered bv 1);
  (* duplicates ignored: one sender's repeated EST(0) stays below the
     f+1 relay bar *)
  List.iter (fun _ -> Dbft.Bv_broadcast.on_est bv ~src:3 0) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "no relay of 0" [ 1 ] !echoes;
  Alcotest.(check bool) "0 not delivered" false (Dbft.Bv_broadcast.delivered bv 0)

let test_bv_relay_at_f_plus_1 () =
  let echoes = ref [] in
  let bv = Dbft.Bv_broadcast.create ~n:4 ~echo:(fun b -> echoes := b :: !echoes) in
  (* f+1 = 2 ESTs for 0 trigger the relay even without own input *)
  Dbft.Bv_broadcast.on_est bv ~src:1 0;
  Alcotest.(check (list int)) "quiet" [] !echoes;
  Dbft.Bv_broadcast.on_est bv ~src:2 0;
  Alcotest.(check (list int)) "relayed" [ 0 ] !echoes

let test_bv_rejects_junk () =
  let bv = Dbft.Bv_broadcast.create ~n:4 ~echo:ignore in
  Alcotest.(check bool) "bad value" true
    (try Dbft.Bv_broadcast.on_est bv ~src:0 2 |> fun () -> false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad src" true
    (try Dbft.Bv_broadcast.on_est bv ~src:9 1 |> fun () -> false
     with Invalid_argument _ -> true)

(* [Senders] against the [bool array] + counter it replaces: random
   [add]/[mem] sequences, out-of-range ids included, at sizes around
   the word boundaries. Each step must return the same value or raise
   the same exception as the model, and the counts and members agree
   after every step. *)
let prop_senders_model =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 7; 8; 9; 16; 62; 63; 64; 65; 100; 1000 ] >>= fun n ->
      list_size (0 -- 300) (pair bool (int_range (-3) (n + 3))) >|= fun ops -> (n, ops))
  in
  let print (n, ops) =
    Printf.sprintf "n=%d [%s]" n
      (String.concat "; "
         (List.map (fun (add, i) -> Printf.sprintf "%s %d" (if add then "add" else "mem") i) ops))
  in
  QCheck.Test.make ~name:"senders = bool array + count" ~count:300 (QCheck.make ~print gen)
    (fun (n, ops) ->
      let set = Dbft.Senders.create n and model = Array.make n false and count = ref 0 in
      let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.exn_slot_name e) in
      List.for_all
        (fun (add, i) ->
          let expect =
            outcome (fun () ->
                let was = model.(i) in
                if add && not was then begin
                  model.(i) <- true;
                  incr count
                end;
                if add then not was else was)
          in
          let got =
            outcome (fun () -> if add then Dbft.Senders.add set i else Dbft.Senders.mem set i)
          in
          expect = got
          && Dbft.Senders.count set = !count
          && Dbft.Senders.to_list set
             = List.filter (fun j -> model.(j)) (List.init n Fun.id))
        ops)

(* One sender set is one small block: 2 + ⌈n/62⌉ words with its header. *)
let test_senders_size () =
  let words n =
    let set = Dbft.Senders.create n in
    ignore (Dbft.Senders.add set (n - 1) : bool);
    (* lint: allow S001 a read-only size probe: reachable_words takes an Obj.t *)
    Obj.reachable_words (Obj.repr set)
  in
  Alcotest.(check bool) "n = 100 in at most 4 words" true (words 100 <= 4);
  Alcotest.(check int) "n = 16" 3 (words 16)

(* Full-protocol runs over the simulated network. *)
let run_consensus ?(crash = []) ~n ~inputs ~seed () =
  let engine = Sim.Engine.create ~seed () in
  let net =
    Sim.Network.create engine ~n
      ~latency:(Sim.Latency.uniform ~lo:5_000 ~hi:25_000)
      ~cost:(fun ~dst:_ _ -> 5)
      ~size:Dbft.Binary_consensus.msg_size ()
  in
  let decisions = Array.make n None in
  let replicas =
    Array.init n (fun id ->
        Dbft.Binary_consensus.create net ~id ~delta_us:30_000
          ~on_decide:(fun ~round v -> decisions.(id) <- Some (round, v))
          ())
  in
  List.iter (fun i -> Sim.Network.crash net i) crash;
  Array.iteri (fun i r -> Dbft.Binary_consensus.propose r inputs.(i)) replicas;
  Sim.Engine.run engine ~until:10_000_000;
  (decisions, Sim.Network.messages_sent net)

let test_unanimous_one_fast () =
  let d, _ = run_consensus ~n:4 ~inputs:[| 1; 1; 1; 1 |] ~seed:1L () in
  Array.iter
    (function
      | Some (round, v) ->
          Alcotest.(check int) "decides 1" 1 v;
          Alcotest.(check int) "round 1" 1 round
      | None -> Alcotest.fail "no decision")
    d

(* Help rounds are reactive (DESIGN §7.2): when every replica decides
   in round 1, nobody starts round 2. Each replica broadcasts EST(1, 1)
   and AUX(1, {1}) and the round-1 coordinator a COORD: 9 broadcasts
   to 4 replicas. *)
let test_no_help_rounds_good_case () =
  let d, sent = run_consensus ~n:4 ~inputs:[| 1; 1; 1; 1 |] ~seed:1L () in
  Array.iter (fun x -> Alcotest.(check bool) "decided" true (x <> None)) d;
  Alcotest.(check int) "messages sent" 36 sent

let test_unanimous_zero () =
  let d, _ = run_consensus ~n:4 ~inputs:[| 0; 0; 0; 0 |] ~seed:2L () in
  Array.iter
    (function
      | Some (_, v) -> Alcotest.(check int) "decides 0" 0 v
      | None -> Alcotest.fail "no decision")
    d

let check_agreement_validity d inputs =
  let vals = Array.to_list d |> List.filter_map (Option.map snd) in
  (match vals with
  | [] -> Alcotest.fail "nobody decided"
  | v :: rest ->
      List.iter (fun v' -> Alcotest.(check int) "agreement" v v') rest;
      (* validity: the decision was someone's input *)
      Alcotest.(check bool) "validity" true (Array.exists (Int.equal v) inputs));
  ()

let test_mixed_inputs_agree () =
  for seed = 1 to 20 do
    let inputs = [| 1; 0; 1; 0; 1; 0; 0 |] in
    let d, _ = run_consensus ~n:7 ~inputs ~seed:(Int64.of_int seed) () in
    Alcotest.(check int) "all decide" 7
      (List.length (Array.to_list d |> List.filter_map (fun x -> x)));
    check_agreement_validity d inputs
  done

let test_with_crashes () =
  (* f = 2 crashed replicas out of 7: the rest still terminate. *)
  let inputs = [| 1; 1; 0; 1; 0; 1; 1 |] in
  let d, _ = run_consensus ~crash:[ 5; 6 ] ~n:7 ~inputs ~seed:9L () in
  let alive = Array.sub d 0 5 in
  Array.iter
    (fun x -> Alcotest.(check bool) "decided" true (x <> None))
    alive;
  check_agreement_validity alive inputs

let prop_agreement_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"dbft agreement over random inputs/seeds" ~count:25
       QCheck.(pair (int_bound 10_000) (int_bound 127))
       (fun (seed, bits) ->
         let n = 4 + (seed mod 4) in
         let inputs = Array.init n (fun i -> (bits lsr i) land 1) in
         let d, _ = run_consensus ~n ~inputs ~seed:(Int64.of_int (seed + 1)) () in
         let vals = Array.to_list d |> List.filter_map (Option.map snd) in
         List.length vals = n
         && (match vals with
            | v :: rest -> List.for_all (Int.equal v) rest
            | [] -> false)))

let suite =
  [
    Alcotest.test_case "quorum arithmetic" `Quick test_quorums;
    Alcotest.test_case "aux union" `Quick test_aux_union;
    Alcotest.test_case "bv basics" `Quick test_bv_basics;
    Alcotest.test_case "bv relay" `Quick test_bv_relay_at_f_plus_1;
    Alcotest.test_case "bv rejects junk" `Quick test_bv_rejects_junk;
    Alcotest.test_case "unanimous 1 fast" `Quick test_unanimous_one_fast;
    Alcotest.test_case "no help rounds in the good case" `Quick test_no_help_rounds_good_case;
    Alcotest.test_case "unanimous 0" `Quick test_unanimous_zero;
    Alcotest.test_case "mixed inputs agree" `Quick test_mixed_inputs_agree;
    Alcotest.test_case "crash tolerance" `Quick test_with_crashes;
    prop_agreement_random;
    QCheck_alcotest.to_alcotest prop_aux_counters;
    QCheck_alcotest.to_alcotest prop_senders_model;
    Alcotest.test_case "senders size" `Quick test_senders_size;
  ]
