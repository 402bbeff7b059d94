(* Unit tests of Lyra's building blocks: ordering clock, predictor,
   requested sequence numbers, commit-state prefix math, types, and the
   mempool shared by every protocol. *)

let test_clock_monotone () =
  let e = Sim.Engine.create () in
  let clock = Lyra.Ordering_clock.create e ~offset_us:500 in
  Alcotest.(check int) "offset applied" 500 (Lyra.Ordering_clock.peek clock);
  let a = Lyra.Ordering_clock.read clock in
  let b = Lyra.Ordering_clock.read clock in
  Alcotest.(check bool) "strictly increasing" true (b > a);
  Sim.Engine.run e ~until:1_000;
  Alcotest.(check bool) "tracks time" true (Lyra.Ordering_clock.read clock >= 1_500)

let test_predictor_learns () =
  let p = Lyra.Predictor.create ~n:4 ~alpha:0.5 ~self:0 in
  Alcotest.(check int) "self known" 1 (Lyra.Predictor.known_count p);
  Alcotest.(check (option int)) "self zero" (Some 0) (Lyra.Predictor.distance p ~peer:0);
  Alcotest.(check (option int)) "unknown" None (Lyra.Predictor.distance p ~peer:2);
  Lyra.Predictor.observe p ~peer:2 ~s_ref:1_000 ~seq_obs:1_100;
  Alcotest.(check (option int)) "first sample" (Some 100) (Lyra.Predictor.distance p ~peer:2);
  (* The estimate is a window median: an isolated queueing spike does
     not move it. *)
  Lyra.Predictor.observe p ~peer:2 ~s_ref:1_000 ~seq_obs:1_105;
  Lyra.Predictor.observe p ~peer:2 ~s_ref:1_000 ~seq_obs:250_000;
  Alcotest.(check (option int)) "median ignores spike" (Some 105)
    (Lyra.Predictor.distance p ~peer:2);
  (* but a consistent regime change wins within window/2 samples *)
  Lyra.Predictor.observe p ~peer:2 ~s_ref:1_000 ~seq_obs:1_500;
  Lyra.Predictor.observe p ~peer:2 ~s_ref:1_000 ~seq_obs:1_500;
  Lyra.Predictor.observe p ~peer:2 ~s_ref:1_000 ~seq_obs:1_500;
  Alcotest.(check (option int)) "regime change" (Some 500)
    (Lyra.Predictor.distance p ~peer:2)

let test_predictor_clamps_lies () =
  let p = Lyra.Predictor.create ~n:3 ~alpha:1.0 ~self:0 in
  Lyra.Predictor.observe p ~peer:1 ~s_ref:1_000 ~seq_obs:0;
  (* wildly negative measurement clamps at 0 *)
  Alcotest.(check (option int)) "clamped" (Some 0) (Lyra.Predictor.distance p ~peer:1)

let test_predictor_predict_blanks () =
  let p = Lyra.Predictor.create ~n:3 ~alpha:0.5 ~self:0 in
  Lyra.Predictor.observe p ~peer:1 ~s_ref:0 ~seq_obs:50;
  let st = Lyra.Predictor.predict p ~s_ref:1_000 in
  Alcotest.(check (array (option int))) "blanks preserved"
    [| Some 1_000; Some 1_050; None |] st

let test_requested_seq () =
  (* n = 4, f = 1: the requested seq is the 3rd smallest. *)
  let st = [| Some 10; Some 30; Some 20; Some 40 |] in
  Alcotest.(check (option int)) "3rd smallest" (Some 30)
    (Lyra.Types.requested_seq ~n:4 ~f:1 st);
  (* blanks sort last *)
  let st = [| Some 10; None; Some 20; Some 40 |] in
  Alcotest.(check (option int)) "blank last" (Some 40)
    (Lyra.Types.requested_seq ~n:4 ~f:1 st);
  (* too many blanks: no quorum of predictions *)
  let st = [| Some 10; None; None; Some 40 |] in
  Alcotest.(check (option int)) "insufficient" None
    (Lyra.Types.requested_seq ~n:4 ~f:1 st);
  (* wrong arity *)
  Alcotest.(check (option int)) "arity" None
    (Lyra.Types.requested_seq ~n:4 ~f:1 [| Some 1 |])

let test_requested_seq_lemma2_bound () =
  (* Lemma 2: at most f entries exceed the requested value. *)
  let rng = Crypto.Rng.create 77L in
  for _ = 1 to 200 do
    let n = 4 + Crypto.Rng.int rng 20 in
    let f = Dbft.Quorums.max_faulty n in
    let st = Array.init n (fun _ -> Some (Crypto.Rng.int rng 100_000)) in
    match Lyra.Types.requested_seq ~n ~f st with
    | None -> Alcotest.fail "must exist"
    | Some s ->
        let above =
          Array.fold_left
            (fun acc -> function Some v when v > s -> acc + 1 | _ -> acc)
            0 st
        in
        Alcotest.(check bool) "at most f above" true (above <= f)
  done

let test_observable_txs () =
  let tx = { Lyra.Types.tx_id = "t"; payload = "p"; submitted_at = 0; origin = 0 } in
  let batch obf =
    { Lyra.Types.iid = { proposer = 0; index = 0 }; txs = [| tx |]; obf; created_at = 0 }
  in
  Alcotest.(check bool) "clear visible" true
    (Lyra.Types.observable_txs (batch Lyra.Types.Clear) <> None);
  Alcotest.(check bool) "structural hidden" true
    (Lyra.Types.observable_txs (batch Lyra.Types.Structural) = None)

let test_digest_distinguishes () =
  let tx id = { Lyra.Types.tx_id = id; payload = "p"; submitted_at = 0; origin = 0 } in
  let proposal id st =
    Lyra.Types.proposal
      {
        iid = { proposer = 0; index = 0 };
        txs = [| tx id |];
        obf = Lyra.Types.Structural;
        created_at = 5;
      }
      st
  in
  let a = Lyra.Types.proposal_digest (proposal "a" [| Some 1 |]) in
  let b = Lyra.Types.proposal_digest (proposal "b" [| Some 1 |]) in
  let c = Lyra.Types.proposal_digest (proposal "a" [| Some 2 |]) in
  Alcotest.(check bool) "txs matter" true (not (String.equal a b));
  Alcotest.(check bool) "st matters" true (not (String.equal a c));
  Alcotest.(check string) "deterministic" a
    (Lyra.Types.proposal_digest (proposal "a" [| Some 1 |]))

(* The digest is what VVB votes and signatures refer to, so its bytes
   are part of the protocol: pin one vector per obfuscation mode. The
   Vss cipher comes from a fixed seed, so this also pins the VSS share
   arithmetic that its tag hashes. *)
let test_digest_vectors () =
  let tx i =
    { Lyra.Types.tx_id = Printf.sprintf "tx%d" i; payload = "p"; submitted_at = i; origin = 1 }
  in
  let digest obf =
    let batch =
      { Lyra.Types.iid = { proposer = 3; index = 17 }; txs = [| tx 0; tx 1 |]; obf; created_at = 4_200 }
    in
    Crypto.Sha256.to_hex
      (Lyra.Types.proposal_digest
         (Lyra.Types.proposal batch [| Some 4_200; None; Some 4_350; Some 4_310 |]))
  in
  let cipher, _ =
    Crypto.Vss.encrypt (Crypto.Rng.create 2024L) ~n:4 ~threshold:3 "tx0|tx1"
  in
  (* Clear and Structural hash the same fields: the tx ids. *)
  let ids = "0ed832c2d1da8dbbe3895d821e79cbb95ff493a640d9fc885f600281e3e9eb89" in
  Alcotest.(check string) "clear" ids (digest Lyra.Types.Clear);
  Alcotest.(check string) "structural" ids (digest Lyra.Types.Structural);
  Alcotest.(check string) "vss"
    "45bb1e78f08382341700a97472ae31081f64b594693d3eaf47877c4acedde7cc"
    (digest (Lyra.Types.Vss cipher))

let test_config_derived () =
  let cfg = Lyra.Config.default ~n:16 in
  Alcotest.(check int) "f" 5 (Lyra.Config.f cfg);
  Alcotest.(check int) "quorum" 11 (Lyra.Config.quorum cfg);
  Alcotest.(check int) "supermajority" 11 (Lyra.Config.supermajority cfg);
  Alcotest.(check int) "L = 3 delta" (3 * cfg.delta_us) (Lyra.Config.l_us cfg)

(* --- Commit_state (Alg. 4 lines 79-95) --- *)

let iid p i = { Lyra.Types.proposer = p; index = i }

let test_commit_state_locked () =
  let cs = Lyra.Commit_state.create ~n:4 ~f:1 in
  Alcotest.(check int) "initially 0" 0 (Lyra.Commit_state.locked cs);
  (* locked = min of the 2f+1 = 3 highest reports *)
  Lyra.Commit_state.peer_status cs ~peer:0 ~locked:100 ~min_pending:1_000;
  Lyra.Commit_state.peer_status cs ~peer:1 ~locked:200 ~min_pending:1_000;
  Lyra.Commit_state.peer_status cs ~peer:2 ~locked:300 ~min_pending:1_000;
  Lyra.Commit_state.peer_status cs ~peer:3 ~locked:400 ~min_pending:1_000;
  Alcotest.(check int) "3rd highest" 200 (Lyra.Commit_state.locked cs)

let test_commit_state_byzantine_low () =
  let cs = Lyra.Commit_state.create ~n:4 ~f:1 in
  (* one Byzantine process reporting 0 forever cannot stall the prefix *)
  Lyra.Commit_state.peer_status cs ~peer:0 ~locked:0 ~min_pending:0;
  Lyra.Commit_state.peer_status cs ~peer:1 ~locked:500 ~min_pending:800;
  Lyra.Commit_state.peer_status cs ~peer:2 ~locked:600 ~min_pending:900;
  Lyra.Commit_state.peer_status cs ~peer:3 ~locked:700 ~min_pending:950;
  Alcotest.(check int) "locked ignores liar" 500 (Lyra.Commit_state.locked cs);
  Alcotest.(check int) "stable ignores liar" 500 (Lyra.Commit_state.stable cs)

let test_commit_state_stable_pending_bound () =
  let cs = Lyra.Commit_state.create ~n:4 ~f:1 in
  Lyra.Commit_state.peer_status cs ~peer:0 ~locked:1_000 ~min_pending:300;
  Lyra.Commit_state.peer_status cs ~peer:1 ~locked:1_000 ~min_pending:400;
  Lyra.Commit_state.peer_status cs ~peer:2 ~locked:1_000 ~min_pending:500;
  Lyra.Commit_state.peer_status cs ~peer:3 ~locked:1_000 ~min_pending:600;
  (* stable = min(locked, 3rd-highest pending) = min(1000, 400) *)
  Alcotest.(check int) "pending bound" 400 (Lyra.Commit_state.stable cs)

let test_commit_state_committed_and_take () =
  let cs = Lyra.Commit_state.create ~n:4 ~f:1 in
  for p = 0 to 3 do
    Lyra.Commit_state.peer_status cs ~peer:p ~locked:250 ~min_pending:10_000
  done;
  Lyra.Commit_state.add_accepted cs (iid 0 0) ~seq:100;
  Lyra.Commit_state.add_accepted cs (iid 1 0) ~seq:200;
  Lyra.Commit_state.add_accepted cs (iid 2 0) ~seq:300;
  Alcotest.(check bool) "is accepted" true (Lyra.Commit_state.is_accepted cs (iid 0 0));
  Alcotest.(check int) "committed = 200" 200 (Lyra.Commit_state.committed cs);
  let taken = Lyra.Commit_state.take_committable cs in
  Alcotest.(check (list (pair (pair int int) int))) "in order"
    [ ((0, 0), 100); ((1, 0), 200) ]
    (List.map (fun ((i : Lyra.Types.iid), s) -> ((i.proposer, i.index), s)) taken);
  (* second take is empty until stable advances *)
  Alcotest.(check (list int)) "drained" []
    (List.map snd (Lyra.Commit_state.take_committable cs));
  Alcotest.(check int) "recent holds the rest" 1
    (List.length (Lyra.Commit_state.accepted_recent cs))

let test_commit_state_ordering_ties () =
  let cs = Lyra.Commit_state.create ~n:4 ~f:1 in
  for p = 0 to 3 do
    Lyra.Commit_state.peer_status cs ~peer:p ~locked:1_000 ~min_pending:10_000
  done;
  (* equal seq: deterministic (proposer, index) tie-break *)
  Lyra.Commit_state.add_accepted cs (iid 2 5) ~seq:100;
  Lyra.Commit_state.add_accepted cs (iid 1 9) ~seq:100;
  let taken = Lyra.Commit_state.take_committable cs in
  Alcotest.(check (list int)) "tie break by proposer" [ 1; 2 ]
    (List.map (fun ((i : Lyra.Types.iid), _) -> i.proposer) taken)

let test_commit_state_idempotent_accept () =
  let cs = Lyra.Commit_state.create ~n:4 ~f:1 in
  Lyra.Commit_state.add_accepted cs (iid 0 0) ~seq:100;
  Lyra.Commit_state.add_accepted cs (iid 0 0) ~seq:100;
  Alcotest.(check int) "once" 1 (Lyra.Commit_state.accepted_count cs)

let test_commit_state_locked_monotone () =
  let cs = Lyra.Commit_state.create ~n:4 ~f:1 in
  for p = 0 to 3 do
    Lyra.Commit_state.peer_status cs ~peer:p ~locked:500 ~min_pending:10_000
  done;
  (* a stale lower report cannot regress the lock *)
  Lyra.Commit_state.peer_status cs ~peer:0 ~locked:100 ~min_pending:10_000;
  Alcotest.(check int) "monotone" 500 (Lyra.Commit_state.locked cs)

(* The isolation check against the full last_rx scan it replaces, over
   receive runs where peers crash and recover and the whole cluster
   sometimes goes quiet for longer than the gap. The probation window
   must open at exactly the same messages. n = 1 has quorum 1, where
   the check can never fail. *)
let prop_isolation_matches_scan =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"isolation = full last_rx scan" ~count:300
       QCheck.(triple (int_range 1 20) (int_bound 1_000) (int_bound 100_000))
       (fun (n, id, seed) ->
         let id = id mod n in
         let quorum = Dbft.Quorums.quorum n in
         let gap = Lyra.Config.isolation_gap_us in
         let iso = Lyra.Isolation.create ~n ~id ~quorum in
         let last_rx = Array.make n 0 in
         let scan_fails ~now =
           let heard = ref 0 in
           Array.iteri
             (fun i at -> if i = id || now - at <= gap then incr heard)
             last_rx;
           !heard < quorum
         in
         let rng = Crypto.Rng.create (Int64.of_int (seed + 1)) in
         let crashed = Array.make n false in
         let now = ref 0 in
         let by_scan = ref 0 and by_iso = ref 0 in
         List.for_all
           (fun _ ->
             if Crypto.Rng.int rng 25 = 0 then begin
               let p = Crypto.Rng.int rng n in
               crashed.(p) <- not crashed.(p)
             end;
             now :=
               !now
               + (if Crypto.Rng.int rng 40 = 0 then Crypto.Rng.int rng (2 * gap)
                  else Crypto.Rng.int rng 30_000);
             let src = Crypto.Rng.int rng n in
             if crashed.(src) then true
             else begin
               last_rx.(src) <- !now;
               if scan_fails ~now:!now then by_scan := !now + gap;
               if not (Lyra.Isolation.receive iso ~src ~now:!now) then
                 by_iso := !now + gap;
               !by_scan = !by_iso
             end)
           (List.init 400 Fun.id)))

(* The mempool against the per-node copy every protocol used to carry:
   a newest-first list with a count, batches cut by rev/split/rev and
   rejected transactions requeued with rev_append. Random add/tx/take/
   requeue runs must mint the same ids and hand out the same batches in
   the same order. *)
module Ref_mempool = struct
  type t = {
    node : int;
    mutable mempool : string list;  (** ids, newest first *)
    mutable count : int;
    mutable counter : int;
  }

  let create node = { node; mempool = []; count = 0; counter = 0 }

  let tx t ~prefix =
    t.counter <- t.counter + 1;
    Printf.sprintf "%s%d-%d" prefix t.node t.counter

  let add t =
    let id = tx t ~prefix:"c" in
    t.mempool <- id :: t.mempool;
    t.count <- t.count + 1;
    id

  let take t k =
    let rec split k acc rest =
      if k = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> (List.rev acc, [])
        | x :: tl -> split (k - 1) (x :: acc) tl
    in
    let batch, rest = split k [] (List.rev t.mempool) in
    t.mempool <- List.rev rest;
    t.count <- t.count - List.length batch;
    batch

  let requeue t ids =
    t.mempool <- List.rev_append ids t.mempool;
    t.count <- t.count + List.length ids
end

type mempool_op = Add | Mint | Take of int | Requeue of int

let mempool_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, return Add);
        (1, return Mint);
        (2, map (fun k -> Take k) (int_bound 6));
        (2, map (fun k -> Requeue k) (int_bound 4));
      ])

let show_mempool_op = function
  | Add -> "add"
  | Mint -> "tx"
  | Take k -> Printf.sprintf "take %d" k
  | Requeue k -> Printf.sprintf "requeue %d" k

let prop_mempool_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mempool = per-node list reference" ~count:300
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map show_mempool_op ops))
          QCheck.Gen.(list_size (int_bound 80) mempool_op_gen))
       (fun ops ->
         let m =
           Lyra.Mempool.create (Sim.Engine.create ()) ~node:3 ~prefix:"c"
         in
         let r = Ref_mempool.create 3 in
         let ids = List.map (fun (tx : Lyra.Types.tx) -> tx.tx_id) in
         (* Transactions out of both queues (taken or minted), waiting
            to be requeued; the same ids on both sides. *)
         let spare = ref [] in
         let split_spare k =
           let rec go k acc = function
             | x :: rest when k > 0 -> go (k - 1) (x :: acc) rest
             | rest -> (List.rev acc, rest)
           in
           let back, rest = go k [] !spare in
           spare := rest;
           back
         in
         let step op =
           (match op with
           | Add ->
               String.equal (Lyra.Mempool.add m ~payload:"x") (Ref_mempool.add r)
           | Mint ->
               let tx = Lyra.Mempool.tx m ~prefix:"w" ~payload:"" in
               spare := !spare @ [ tx ];
               String.equal tx.tx_id (Ref_mempool.tx r ~prefix:"w")
           | Take k ->
               let got = Lyra.Mempool.take m k in
               spare := !spare @ got;
               List.equal String.equal (ids got) (Ref_mempool.take r k)
           | Requeue k ->
               let back = split_spare k in
               Lyra.Mempool.requeue m back;
               Ref_mempool.requeue r (ids back);
               true)
           && Int.equal (Lyra.Mempool.length m) r.count
         in
         List.for_all step ops
         && List.equal String.equal
              (ids (Lyra.Mempool.take m max_int))
              (Ref_mempool.take r r.count)))

(* The size-or-timeout policy on a live engine: full batches go out at
   once, a partial one after the timeout, one timer at a time, a timer
   that fires while not ready proposes nothing until the next flush
   re-arms it, and late arrivals ride the armed timer's batch. *)
let test_mempool_flush_policy () =
  let e = Sim.Engine.create () in
  let m = Lyra.Mempool.create e ~node:0 ~prefix:"c" in
  let ready = ref true in
  let proposed = ref [] in
  let flush () =
    Lyra.Mempool.flush m ~batch_size:3 ~timeout_us:10_000
      ~ready:(fun () -> !ready)
      ~propose:(fun txs ->
        proposed :=
          (Sim.Engine.now e, List.map (fun (tx : Lyra.Types.tx) -> tx.tx_id) txs)
          :: !proposed)
  in
  let add k =
    for _ = 1 to k do
      ignore (Lyra.Mempool.add m ~payload:"x" : string)
    done
  in
  let proposals = Alcotest.(list (pair int (list string))) in
  let take_proposed () =
    let p = List.rev !proposed in
    proposed := [];
    p
  in
  add 6;
  flush ();
  Alcotest.check proposals "two full batches at once"
    [ (0, [ "c0-1"; "c0-2"; "c0-3" ]); (0, [ "c0-4"; "c0-5"; "c0-6" ]) ]
    (take_proposed ());
  Alcotest.(check int) "nothing left, no timer" 0 (Sim.Engine.pending e);
  add 1;
  flush ();
  Alcotest.(check int) "partial batch queued" 1 (Lyra.Mempool.length m);
  Alcotest.(check int) "one timer armed" 1 (Sim.Engine.pending e);
  Sim.Engine.run e ~until:5_000;
  add 1;
  flush ();
  Alcotest.(check int) "still one timer" 1 (Sim.Engine.pending e);
  Sim.Engine.run e ~until:9_999;
  Alcotest.check proposals "nothing before the timeout" [] (take_proposed ());
  Sim.Engine.run e ~until:10_000;
  Alcotest.check proposals "partial batch after the timeout, late add included"
    [ (10_000, [ "c0-7"; "c0-8" ]) ]
    (take_proposed ());
  Alcotest.(check int) "no timer left" 0 (Sim.Engine.pending e);
  add 1;
  flush ();
  ready := false;
  Sim.Engine.run e ~until:30_000;
  Alcotest.check proposals "not ready: held" [] (take_proposed ());
  Alcotest.(check int) "held tx queued" 1 (Lyra.Mempool.length m);
  Alcotest.(check int) "not re-armed while not ready" 0 (Sim.Engine.pending e);
  ready := true;
  flush ();
  Sim.Engine.run e ~until:40_000;
  Alcotest.check proposals "re-armed by the next flush"
    [ (40_000, [ "c0-9" ]) ]
    (take_proposed ())

(* The list implementation [Types.requested_seq] had before it moved
   to one array selection, kept as the reference. *)
let requested_seq_list ~n ~f st =
  if not (Int.equal (Array.length st) n) then None
  else begin
    let known = Array.to_list st |> List.filter_map (fun x -> x) in
    if List.length known < n - f then None
    else
      let sorted = List.sort Int.compare known in
      List.nth_opt sorted (n - f - 1)
  end

(* Arrays of every length up to n + 2 (short and long ones hit the
   arity guard), mostly of length n, with blanks at a random density so
   runs with too few known values come up often; values are drawn from
   a small range so ties are common. *)
let prop_requested_seq_array =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"array requested_seq = list version" ~count:1000
       QCheck.(quad (int_range 1 40) (int_bound 1_000) (int_bound 100) (int_bound 1_000_000))
       (fun (n, fpick, blank_pct, seed) ->
         let rng = Crypto.Rng.create (Int64.of_int (seed + 1)) in
         let f = fpick mod n in
         let len =
           if Crypto.Rng.int rng 4 = 0 then Crypto.Rng.int rng (n + 3) else n
         in
         let st =
           Array.init len (fun _ ->
               if Crypto.Rng.int rng 100 < blank_pct then None
               else Some (Crypto.Rng.int rng 50 - 10))
         in
         Lyra.Types.requested_seq ~n ~f st = requested_seq_list ~n ~f st))

(* [Node]'s pending set moved from a hash table walked through
   [Sim.Det.sorted_bindings] to an [Iid_map] walked directly. The walk
   order decides which Nudges go out first, so the map's order must be
   the sorted bindings' order, after any mix of adds, overwrites and
   removals. *)
let prop_pending_map_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Iid_map walk = sorted_bindings" ~count:500
       QCheck.(list (triple (int_bound 2) (int_bound 20) (int_bound 40)))
       (fun ops ->
         let tbl = Hashtbl.create 16 in
         let map = ref Lyra.Types.Iid_map.empty in
         List.iteri
           (fun i (op, proposer, index) ->
             let iid = { Lyra.Types.proposer; index } in
             if op = 0 then begin
               Hashtbl.remove tbl iid;
               map := Lyra.Types.Iid_map.remove iid !map
             end
             else begin
               Hashtbl.replace tbl iid i;
               map := Lyra.Types.Iid_map.add iid i !map
             end)
           ops;
         let walked = ref [] in
         Lyra.Types.Iid_map.iter (fun k v -> walked := (k, v) :: !walked) !map;
         List.rev !walked = Sim.Det.sorted_bindings ~cmp:Lyra.Types.iid_compare tbl))

let suite =
  [
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "predictor learns" `Quick test_predictor_learns;
    Alcotest.test_case "predictor clamps" `Quick test_predictor_clamps_lies;
    Alcotest.test_case "predictor blanks" `Quick test_predictor_predict_blanks;
    Alcotest.test_case "requested seq" `Quick test_requested_seq;
    Alcotest.test_case "lemma 2 bound" `Quick test_requested_seq_lemma2_bound;
    prop_requested_seq_array;
    prop_pending_map_order;
    Alcotest.test_case "observable txs" `Quick test_observable_txs;
    Alcotest.test_case "digest distinguishes" `Quick test_digest_distinguishes;
    Alcotest.test_case "digest vectors" `Quick test_digest_vectors;
    Alcotest.test_case "config derived" `Quick test_config_derived;
    Alcotest.test_case "commit locked" `Quick test_commit_state_locked;
    Alcotest.test_case "commit byz low" `Quick test_commit_state_byzantine_low;
    Alcotest.test_case "commit stable pending" `Quick test_commit_state_stable_pending_bound;
    Alcotest.test_case "commit take" `Quick test_commit_state_committed_and_take;
    Alcotest.test_case "commit tie break" `Quick test_commit_state_ordering_ties;
    Alcotest.test_case "commit idempotent" `Quick test_commit_state_idempotent_accept;
    Alcotest.test_case "commit locked monotone" `Quick test_commit_state_locked_monotone;
    prop_isolation_matches_scan;
    prop_mempool_matches_reference;
    Alcotest.test_case "mempool flush policy" `Quick test_mempool_flush_policy;
  ]
