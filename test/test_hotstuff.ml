(* Chained HotStuff: agreement, dedup, three-chain commit, leader
   rotation, timeout-driven view change under crashes, block command
   order, catch-up, and the command pool against the list code it
   replaced. *)

(* [submit] commands reach every replica before it starts. *)
let make_cluster ?(seed = 21L) ?(delta_us = 40_000) ?(capacity = 10)
    ?(submit = []) n =
  let engine = Sim.Engine.create ~seed () in
  let net =
    Sim.Network.create engine ~n
      ~latency:(Sim.Latency.uniform ~lo:5_000 ~hi:25_000)
      ~cost:(fun ~dst:_ _ -> 10)
      ~size:(Hotstuff.Replica.msg_size ~cmd_size:(fun _ -> 64))
      ()
  in
  let commits = Array.make n [] in
  (* Commands are strings; the pool key is each string's first-seen rank. *)
  let keys = Hashtbl.create 64 in
  let cmd_key c =
    match Hashtbl.find_opt keys c with
    | Some k -> k
    | None ->
        let k = Hashtbl.length keys in
        Hashtbl.add keys c k;
        k
  in
  let replicas =
    Array.init n (fun id ->
        Hotstuff.Replica.create
          (Hotstuff.Replica.network_transport net ~id)
          ~id ~delta_us ~block_capacity:capacity
          ~cmd_id:(fun c -> c) ~cmd_key
          ~on_commit:(fun ~height:_ cmds -> commits.(id) <- commits.(id) @ cmds)
          ())
  in
  Array.iteri
    (fun id r ->
      Sim.Network.register net ~id (fun ~src m -> Hotstuff.Replica.handle r ~src m))
    replicas;
  Array.iter (fun r -> List.iter (Hotstuff.Replica.submit r) submit) replicas;
  Array.iter Hotstuff.Replica.start replicas;
  (engine, net, replicas, commits)

let prefix_agree commits =
  let base = commits.(0) in
  Array.iter
    (fun c ->
      let l = min (List.length base) (List.length c) in
      Alcotest.(check (list string)) "order agreement"
        (List.filteri (fun i _ -> i < l) base)
        (List.filteri (fun i _ -> i < l) c))
    commits

let test_commits_all_commands_once () =
  let engine, _, replicas, commits = make_cluster 4 in
  for k = 0 to 19 do
    Sim.Engine.schedule engine ~delay:(k * 30_000) (fun () ->
        Array.iter
          (fun r -> Hotstuff.Replica.submit r (Printf.sprintf "cmd-%d" k))
          replicas)
  done;
  Sim.Engine.run engine ~until:6_000_000;
  Array.iter
    (fun c ->
      Alcotest.(check int) "20 exactly once" 20 (List.length c);
      Alcotest.(check int) "no duplicates" 20
        (List.length (List.sort_uniq compare c)))
    commits;
  prefix_agree commits

let test_chain_advances_and_rotates () =
  let engine, _, replicas, _ = make_cluster 4 in
  Sim.Engine.run engine ~until:3_000_000;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "chain advanced" true (Hotstuff.Replica.view r > 10);
      (* round-robin leadership: everyone proposed *)
      Alcotest.(check bool) "proposed" true (Hotstuff.Replica.blocks_proposed r > 0))
    replicas

let test_three_chain_commit_lag () =
  let engine, _, replicas, _ = make_cluster 4 in
  Sim.Engine.run engine ~until:3_000_000;
  Array.iter
    (fun r ->
      let lag = Hotstuff.Replica.view r - Hotstuff.Replica.committed_height r in
      (* committed height trails the view by the 3-chain, a small lag *)
      Alcotest.(check bool) "3-chain lag" true (lag >= 2 && lag <= 8))
    replicas

let test_crash_leader_progress () =
  (* Crash one replica (it will repeatedly be leader): timeouts must
     carry the others forward and commands still commit. *)
  let engine, net, replicas, commits = make_cluster ~delta_us:30_000 4 in
  Sim.Network.crash net 2;
  for k = 0 to 9 do
    Sim.Engine.schedule engine ~delay:(500_000 + (k * 50_000)) (fun () ->
        Array.iteri
          (fun i r -> if i <> 2 then Hotstuff.Replica.submit r (Printf.sprintf "c%d" k))
          replicas)
  done;
  Sim.Engine.run engine ~until:20_000_000;
  let alive = [| commits.(0); commits.(1); commits.(3) |] in
  Array.iter
    (fun c -> Alcotest.(check int) "all commands" 10 (List.length c))
    alive;
  prefix_agree alive

let test_pending_tracked () =
  let engine, _, replicas, _ = make_cluster 4 in
  (* submit before starting traffic settles; pending must drain *)
  Array.iter (fun r -> Hotstuff.Replica.submit r "solo") replicas;
  Sim.Engine.run engine ~until:3_000_000;
  Array.iter
    (fun r -> Alcotest.(check int) "pending drained" 0 (Hotstuff.Replica.pending_count r))
    replicas

(* A leader takes its oldest pending commands and lists them
   newest-first in the block; the seed-7 goldens do not pin this
   order, the smoke fairness rows for hotstuff do. *)
let test_block_order_newest_first () =
  let engine, _, _, commits = make_cluster ~submit:[ "c1"; "c2"; "c3" ] 4 in
  Sim.Engine.run engine ~until:3_000_000;
  Array.iter
    (fun c -> Alcotest.(check (list string)) "newest first" [ "c3"; "c2"; "c1" ] c)
    commits

(* The list code the command pool replaced: a reversed pending list
   cut by [split] on proposal and filtered by [List.mem] on commit,
   with seen/committed id tables. *)
module Reference = struct
  type t = {
    mutable pending : string list;  (** reversed queue *)
    seen : (string, unit) Hashtbl.t;
    done_ : (string, unit) Hashtbl.t;
  }

  let create () = { pending = []; seen = Hashtbl.create 16; done_ = Hashtbl.create 16 }

  let submit t id =
    if Hashtbl.mem t.seen id then false
    else begin
      Hashtbl.replace t.seen id ();
      t.pending <- id :: t.pending;
      true
    end

  let commit t ids =
    let fresh = List.filter (fun id -> not (Hashtbl.mem t.done_ id)) ids in
    List.iter
      (fun id ->
        Hashtbl.replace t.done_ id ();
        Hashtbl.replace t.seen id ())
      fresh;
    if ids <> [] then t.pending <- List.filter (fun c -> not (List.mem c ids)) t.pending;
    fresh

  let take t k =
    let cmds, rest =
      let rec split k acc = function
        | x :: tl when k > 0 -> split (k - 1) (x :: acc) tl
        | rest -> (acc, rest)
      in
      split k [] (List.rev t.pending)
    in
    t.pending <- List.rev rest;
    cmds

  let live t = List.length t.pending
end

type pool_op = Submit of int | Commit of int list | Take of int

(* A pool of [n] lanes and its operations. Keys are mostly small, so
   they spread over the lanes and commit out of order within a lane;
   some are negative, some near [max_int], one is [min_int]. *)
let gen_pool_ops =
  let open QCheck.Gen in
  let id =
    frequency
      [
        (8, int_bound 40);
        (1, map (fun k -> -1 - k) (int_bound 5));
        (1, map (fun k -> max_int - k) (int_bound 5));
        (1, return min_int);
      ]
  in
  pair (int_range 1 7)
    (list_size (int_range 0 300)
       (frequency
          [
            (5, map (fun i -> Submit i) id);
            (3, map (fun l -> Commit (List.sort_uniq Int.compare l)) (list_size (int_range 0 6) id));
            (2, map (fun k -> Take k) (int_range 1 6));
          ]))

let print_pool_op = function
  | Submit i -> Printf.sprintf "Submit %d" i
  | Commit l -> Printf.sprintf "Commit [%s]" (String.concat ";" (List.map string_of_int l))
  | Take k -> Printf.sprintf "Take %d" k

(* A command is the string "c<i>", which the list code named by
   itself; the pool names it by the int key [i]. A commit block is
   handled the way [Replica] does it, one [Cmd_pool.commit] per
   command in order. *)
let prop_pool_matches_reference =
  QCheck.Test.make ~name:"cmd pool = reversed-list reference; queue ≤ 2·live"
    ~count:500
    (QCheck.make gen_pool_ops ~print:(fun (n, ops) ->
         Printf.sprintf "n=%d: %s" n (String.concat ", " (List.map print_pool_op ops))))
    (fun (n, ops) ->
      let pool = Hotstuff.Cmd_pool.create ~n and reference = Reference.create () in
      let name i = Printf.sprintf "c%d" i in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Submit i ->
                Bool.equal
                  (Hotstuff.Cmd_pool.submit pool i (name i))
                  (Reference.submit reference (name i))
            | Commit l ->
                List.map name (List.filter (Hotstuff.Cmd_pool.commit pool) l)
                = Reference.commit reference (List.map name l)
            | Take k ->
                Hotstuff.Cmd_pool.take pool k = Reference.take reference k
          in
          let live = Hotstuff.Cmd_pool.live pool in
          same
          && live = Reference.live reference
          && Hotstuff.Cmd_pool.queue_length pool <= 2 * live)
        ops)

(* Committed keys are held one by one only while their lane commits
   ahead of its order. At n = 5, lanes commit indices 0..11 in order,
   interleaved across lanes: nothing is held at any point. Committed in
   a shuffled order, keys are held while gaps remain, and none once
   every index is in; every key then reads as committed. *)
let test_pool_watermarks () =
  let n = 5 and per_lane = 12 in
  let keys = List.init (n * per_lane) Fun.id in
  let fill pool = List.iter (fun k -> ignore (Hotstuff.Cmd_pool.submit pool k k : bool)) keys in
  let in_order = Hotstuff.Cmd_pool.create ~n in
  fill in_order;
  List.iter
    (fun k ->
      Alcotest.(check bool) "fresh commit" true (Hotstuff.Cmd_pool.commit in_order k);
      Alcotest.(check int) "in order: none held" 0 (Hotstuff.Cmd_pool.sparse_committed in_order))
    (* Lane l's index i goes at step i + 2l: lanes overlap. *)
    (List.sort
       (fun a b -> compare ((a / n) + (2 * (a mod n)), a) ((b / n) + (2 * (b mod n)), b))
       keys);
  let shuffled = Hotstuff.Cmd_pool.create ~n in
  fill shuffled;
  let rng = Random.State.make [| 17 |] in
  let order =
    List.map snd (List.sort compare (List.map (fun k -> (Random.State.bits rng, k)) keys))
  in
  let held = ref 0 in
  List.iter
    (fun k ->
      ignore (Hotstuff.Cmd_pool.commit shuffled k : bool);
      held := max !held (Hotstuff.Cmd_pool.sparse_committed shuffled))
    order;
  Alcotest.(check bool) "shuffled: some held on the way" true (!held > 0);
  Alcotest.(check int) "shuffled: none held at the end" 0 (Hotstuff.Cmd_pool.sparse_committed shuffled);
  List.iter
    (fun k ->
      Alcotest.(check bool) "recommit refused" false (Hotstuff.Cmd_pool.commit shuffled k);
      Alcotest.(check bool) "resubmit refused" false (Hotstuff.Cmd_pool.submit shuffled k k))
    keys;
  Alcotest.(check int) "nothing live" 0 (Hotstuff.Cmd_pool.live shuffled)

let test_msg_sizes () =
  let qc = { Hotstuff.Replica.q_block = "x"; q_height = 1; voters = Testutil.senders 4 [ 0; 1; 2 ] } in
  let block =
    {
      Hotstuff.Replica.b_id = "b";
      height = 2;
      parent = "x";
      justify = qc;
      cmds = [ "aaaa"; "bbbb" ];
      proposer = 0;
    }
  in
  let size = Hotstuff.Replica.msg_size ~cmd_size:(fun _ -> 100) in
  Alcotest.(check int) "proposal" (96 + 48 + 24 + 200) (size (Hotstuff.Replica.Proposal block));
  Alcotest.(check int) "vote" 96 (size (Hotstuff.Replica.Vote { block_id = "b"; height = 2 }));
  Alcotest.(check bool) "new_view" true
    (size (Hotstuff.Replica.New_view { view = 3; qc }) > 40)

(* Replica 2 never received block 1, and block 2 (its own) references
   it: the fetch goes to a voter of block 2's QC, never to replica 2
   itself, and a re-request after the in-flight mark expires to the
   next voter. Once the fetched block lands, the highest stored block's
   three-chain (4 -> 3 -> 2 -> 1) commits it at once, with no further
   proposal. Blocks are hand-made; the transport records sends and
   holds timers until [fire]. *)
let test_catchup_source_and_evaluation () =
  let sent = ref [] and timers = ref [] in
  let tr =
    {
      Hotstuff.Replica.tr_n = 4;
      tr_broadcast = (fun _ -> ());
      tr_send = (fun ~dst m -> sent := (dst, m) :: !sent);
      tr_schedule = (fun ~delay_us:_ fn -> timers := fn :: !timers);
    }
  in
  let fire () =
    let due = List.rev !timers in
    timers := [];
    List.iter (fun fn -> fn ()) due
  in
  let r =
    Hotstuff.Replica.create tr ~id:2 ~delta_us:1_000 ~block_capacity:10 ~cmd_id:Fun.id
      ~cmd_key:(fun _ -> 0) ~on_commit:(fun ~height:_ _ -> ()) ()
  in
  let block h =
    let parent = if h = 1 then "genesis" else Printf.sprintf "b%d" (h - 1) in
    Hotstuff.Replica.Proposal
      {
        b_id = Printf.sprintf "b%d" h;
        height = h;
        parent;
        justify = { q_block = parent; q_height = h - 1; voters = Testutil.senders 4 [ 0; 1; 3 ] };
        cmds = [];
        proposer = h mod 4;
      }
  in
  let requests () =
    List.filter_map
      (function dst, Hotstuff.Replica.Catchup_req { missing; _ } -> Some (dst, missing) | _ -> None)
      (List.rev !sent)
  in
  Hotstuff.Replica.handle r ~src:2 (block 2);
  fire ();
  Alcotest.(check (list (pair int string))) "first voter, not itself" [ (0, "b1") ] (requests ());
  fire ();
  Hotstuff.Replica.handle r ~src:3 (block 3);
  Hotstuff.Replica.handle r ~src:0 (block 4);
  fire ();
  Alcotest.(check (list (pair int string))) "re-request to the next voter"
    [ (0, "b1"); (1, "b1") ] (requests ());
  Alcotest.(check int) "nothing committed over the hole" 0 (Hotstuff.Replica.committed_height r);
  (match block 1 with
  | Proposal b -> Hotstuff.Replica.handle r ~src:1 (Catchup_resp { blocks = [ b ] })
  | _ -> assert false);
  Alcotest.(check int) "committed on arrival" 1 (Hotstuff.Replica.committed_height r)

(* The leader of view 2 at n = 7 (replica 2) certifies block 1 once
   n − f = 5 distinct replicas voted, and the QC it proposes on lists
   exactly those voters in ascending order: repeated votes and a vote
   for another block count nothing, and a vote after the quorum leaves
   the certificate as it was. *)
let test_qc_voters () =
  let proposals = ref [] in
  let tr =
    {
      Hotstuff.Replica.tr_n = 7;
      tr_broadcast =
        (fun m ->
          match m with Hotstuff.Replica.Proposal b -> proposals := b :: !proposals | _ -> ());
      tr_send = (fun ~dst:_ _ -> ());
      tr_schedule = (fun ~delay_us:_ _ -> ());
    }
  in
  let r =
    Hotstuff.Replica.create tr ~id:2 ~delta_us:1_000 ~block_capacity:10 ~cmd_id:Fun.id
      ~cmd_key:(fun _ -> 0) ~on_commit:(fun ~height:_ _ -> ()) ()
  in
  Hotstuff.Replica.start r;
  let vote src block_id = Hotstuff.Replica.handle r ~src (Vote { block_id; height = 1 }) in
  List.iter (fun (src, id) -> vote src id)
    [ (6, "b1"); (1, "b1"); (6, "b1"); (4, "b1"); (3, "other"); (1, "b1"); (0, "b1") ];
  Alcotest.(check int) "four voters: no proposal yet" 0 (List.length !proposals);
  vote 5 "b1";
  vote 3 "b1";
  match !proposals with
  | [ b ] ->
      Alcotest.(check string) "justifies b1" "b1" b.justify.q_block;
      Alcotest.(check (list int)) "voters ascending" [ 0; 1; 4; 5; 6 ]
        (Dbft.Senders.to_list b.justify.voters);
      Alcotest.(check int) "size counts five voters" (96 + 48 + 40)
        (Hotstuff.Replica.msg_size ~cmd_size:(fun _ -> 0) (Proposal b))
  | l -> Alcotest.failf "%d proposals" (List.length l)

let suite =
  [
    Alcotest.test_case "commands once + agree" `Quick test_commits_all_commands_once;
    Alcotest.test_case "chain advances" `Quick test_chain_advances_and_rotates;
    Alcotest.test_case "three-chain lag" `Quick test_three_chain_commit_lag;
    Alcotest.test_case "crash leader progress" `Slow test_crash_leader_progress;
    Alcotest.test_case "pending drained" `Quick test_pending_tracked;
    Alcotest.test_case "msg sizes" `Quick test_msg_sizes;
    Alcotest.test_case "block order newest-first" `Quick test_block_order_newest_first;
    QCheck_alcotest.to_alcotest prop_pool_matches_reference;
    Alcotest.test_case "cmd pool watermarks" `Quick test_pool_watermarks;
    Alcotest.test_case "catch-up source and evaluation" `Quick test_catchup_source_and_evaluation;
    Alcotest.test_case "QC voters" `Quick test_qc_voters;
  ]
