(* Lyra's recovery stack (Lyra.Recovery) driven through a hand-fed
   host: a stub node whose instances, log and commit state the test
   writes itself, and whose sends the test reads back. One test per
   mechanism; each fails with its mechanism switched off.

   The four status readers, and what each may rely on:
   - isolation check: no field, only that some message arrived; a peer
     counts as heard for Config.isolation_gap_us after its last one;
   - claim corroboration: [accepted_recent] of heartbeats; witnesses
     accumulate over all time, so a claim never goes stale while the
     instance is undecided here;
   - sync target: [committed] of every message, each peer's highest
     kept for good (a lower, reordered claim does not shrink it);
   - sync goal: [committed] of heartbeats only, each peer's first one
     received since the sync started; nothing older counts. *)

module R = Lyra.Recovery
module T = Lyra.Types

let n = 4

let cfg = Lyra.Config.default ~n

let l_us = Lyra.Config.l_us cfg

type stub = {
  engine : Sim.Engine.t;
  mutable r : R.t option;
  mutable crashed : bool;
  mutable sent : (int option * T.body) list;  (** newest first; [None]: broadcast *)
  mutable log : (T.batch * int) list;  (** emitted, oldest first *)
  mutable tail : (T.iid * int) list;  (** taken, not emitted *)
  accepted : (T.iid, unit) Hashtbl.t;
  views : (T.iid, R.view) Hashtbl.t;
  mutable undecided : (T.iid * int) list;  (** (iid, created_at), in iid order *)
  mutable pokes : T.iid list;
  mutable forced : (T.iid * int * T.proposal option) list;
  mutable resumed : int;
}

let rec drop k l = match l with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> l

let host s : R.host =
  {
    config = cfg;
    self = 0;
    now = (fun () -> Sim.Engine.now s.engine);
    crashed = (fun () -> s.crashed);
    send = (fun ~dst body -> s.sent <- (Some dst, body) :: s.sent);
    broadcast = (fun body -> s.sent <- (None, body) :: s.sent);
    schedule = (fun ~delay_us fn -> Sim.Engine.schedule s.engine ~delay:delay_us fn);
    output_count = (fun () -> List.length s.log);
    log_length = (fun () -> List.length s.log + List.length s.tail);
    accepted = Hashtbl.mem s.accepted;
    validated = (fun _ -> false);
    instance = (fun iid -> Option.value (Hashtbl.find_opt s.views iid) ~default:R.Absent);
    contact =
      (fun iid ->
        if not (Hashtbl.mem s.views iid) then Hashtbl.replace s.views iid R.Undecided;
        Hashtbl.find s.views iid);
    poke = (fun iid -> s.pokes <- iid :: s.pokes);
    iter_undecided = (fun fn -> List.iter (fun (iid, created_at) -> fn iid ~created_at) s.undecided);
    force_decide =
      (fun iid ~value proposal ->
        s.forced <- (iid, value, proposal) :: s.forced;
        Hashtbl.replace s.views iid (R.Decided { value; proposal });
        Option.iter (fun r -> R.forget r iid) s.r);
    log_slice =
      (fun ~from -> List.filteri (fun i _ -> i < Lyra.Config.sync_batch) (drop from s.log));
    unemitted_tail = (fun () -> s.tail);
    adopt =
      (fun batch ~seq ->
        let iid = batch.T.iid in
        List.for_all (fun ((b : T.batch), _) -> not (T.iid_equal b.iid iid)) s.log
        && begin
             s.log <- s.log @ [ (batch, seq) ];
             s.tail <- List.filter (fun (i, _) -> not (T.iid_equal i iid)) s.tail;
             true
           end);
    resume = (fun () -> s.resumed <- s.resumed + 1);
  }

let stub () =
  let s =
    {
      engine = Sim.Engine.create ~seed:3L ();
      r = None;
      crashed = false;
      sent = [];
      log = [];
      tail = [];
      accepted = Hashtbl.create 8;
      views = Hashtbl.create 8;
      undecided = [];
      pokes = [];
      forced = [];
      resumed = 0;
    }
  in
  let r = R.create (host s) in
  s.r <- Some r;
  (s, r)

let now s = Sim.Engine.now s.engine

(* Moves the clock to [at] µs. *)
let at s t = Sim.Engine.run s.engine ~until:t

let status ?(committed = 0) ?(claims = []) () =
  { T.locked_upto = 0; min_pending = T.no_pending; committed; accepted_recent = claims }

(* A message from [src] carrying this status, as the node reads it. *)
let hear (s, r) ~src ?committed ?claims () =
  R.on_status r ~src ~now:(now s) (status ?committed ?claims ())

(* A heartbeat: its status and its log-length claim for the sync goal. *)
let heartbeat (s, r) ~src ~committed =
  hear (s, r) ~src ~committed ();
  R.on_heartbeat r ~src ~committed

(* Every peer heard, so the isolation check passes. *)
let hear_all h ?(committed = fun _ -> 0) () =
  for src = 1 to n - 1 do
    hear h ~src ~committed:(committed src) ()
  done

let sync_reqs s =
  List.rev
    (List.filter_map
       (function Some dst, T.Sync_req { from_count } -> Some (dst, from_count) | _ -> None)
       s.sent)

let nudges s =
  List.length (List.filter (function None, T.Nudge _ -> true | _ -> false) s.sent)

let iid proposer index = { T.proposer; index }

let batch i = { T.iid = i; txs = [||]; obf = T.Structural; created_at = 0 }

(* A stub 100 ms in, every peer just heard: the isolation check
   passes, and probation (open at time 0 only) is over. *)
let started () =
  let ((s, _) as h) = stub () in
  at s 100_000;
  hear_all h ();
  h

(* The node has recovered: probation is open, any lag syncs at once. *)
let recovered () =
  let ((_, r) as h) = started () in
  R.on_recover r;
  h

(* ------------------------------------------------------------------ *)
(* The sync.                                                           *)
(* ------------------------------------------------------------------ *)

(* Status reader, sync target: the (f+1)-th highest log length claimed,
   from [committed] of every message, each peer's highest kept. One
   claim alone (possibly a Byzantine one) moves nothing; a later lower
   claim does not shrink a peer's. The request goes to the lowest-id
   peer claiming the target, from this node's emitted count. *)
let test_sync_target () =
  let ((s, r) as h) = recovered () in
  hear h ~src:3 ~committed:9 ();
  Alcotest.(check (list (pair int int))) "one claim: no sync" [] (sync_reqs s);
  hear h ~src:3 ~committed:2 ();
  hear h ~src:2 ~committed:5 ();
  Alcotest.(check bool) "syncing" true (R.syncing r);
  (* Target 5: peer 2 is the lowest id claiming it; peer 1 claims 0. *)
  Alcotest.(check (list (pair int int))) "Sync_req to peer 2 from 0" [ (2, 0) ] (sync_reqs s);
  Alcotest.(check int) "one sync" 1 (R.syncs_started r)

let resp h ~src ~from_count ~upto ?(tail = []) entries =
  let _, r = h in
  R.on_sync_resp r ~src ~from_count ~upto entries tail

(* Only a slice that starts exactly at the emitted count is applied. *)
let test_sync_contiguous_slice () =
  let ((s, r) as h) = recovered () in
  hear_all h ~committed:(fun _ -> 3) ();
  resp h ~src:1 ~from_count:1 ~upto:3 [ (batch (iid 1 0), 10); (batch (iid 2 0), 11) ];
  Alcotest.(check int) "stale slice ignored" 0 (List.length s.log);
  resp h ~src:1 ~from_count:0 ~upto:3 [ (batch (iid 1 0), 10); (batch (iid 2 0), 11) ];
  Alcotest.(check int) "contiguous slice adopted" 2 (List.length s.log);
  Alcotest.(check int) "synced entries" 2 (R.synced_entries r);
  (* The server has more: pull on from the new count. *)
  Alcotest.(check (list (pair int int))) "next pull from 2" [ (1, 0); (1, 2) ] (sync_reqs s);
  Alcotest.(check bool) "still syncing" true (R.syncing r)

(* A server whose slice holds an entry this node emitted already has a
   diverging log: the rest of the slice is dropped and no new request
   goes out until the next tick. *)
let test_sync_divergence_abort () =
  let ((s, r) as h) = recovered () in
  hear_all h ~committed:(fun _ -> 3) ();
  resp h ~src:1 ~from_count:0 ~upto:3 [ (batch (iid 1 0), 10) ];
  s.sent <- [];
  resp h ~src:1 ~from_count:1 ~upto:3 [ (batch (iid 1 0), 10); (batch (iid 2 0), 11) ];
  Alcotest.(check int) "nothing adopted past the divergence" 1 (List.length s.log);
  Alcotest.(check int) "synced entries" 1 (R.synced_entries r);
  Alcotest.(check (list (pair int int))) "no new request" [] (sync_reqs s);
  Alcotest.(check bool) "still syncing" true (R.syncing r)

(* Status reader, sync goal: the (f+1)-th highest [committed] of the
   first heartbeat each peer sent since the sync started. Heartbeats
   from before the start and a peer's later heartbeats do not count;
   until f+1 peers have heartbeated the goal is unknown and the sync
   does not end. It ends once the log holds the goal, the server has
   emitted nothing past it, and the server's tail agrees with ours. *)
let test_sync_goal_and_end () =
  let ((s, r) as h) = started () in
  heartbeat h ~src:1 ~committed:9;
  heartbeat h ~src:2 ~committed:9;
  R.on_recover r;
  hear h ~src:3 ~committed:2 ();
  Alcotest.(check bool) "syncing" true (R.syncing r);
  s.tail <- [ (iid 3 0, 30) ];
  let slice = [ (batch (iid 1 0), 10); (batch (iid 2 0), 11) ] in
  resp h ~src:1 ~from_count:0 ~upto:2 ~tail:[ (iid 3 0, 30) ] slice;
  Alcotest.(check int) "slice adopted" 2 (List.length s.log);
  Alcotest.(check bool) "goal unknown: still syncing" true (R.syncing r);
  heartbeat h ~src:1 ~committed:3;
  heartbeat h ~src:1 ~committed:9;
  heartbeat h ~src:2 ~committed:4;
  (* Goal 3 = 2nd highest of (3, 4): the log (2 emitted + 1 taken) holds it. *)
  resp h ~src:1 ~from_count:2 ~upto:2 ~tail:[ (iid 2 5, 30) ] [];
  Alcotest.(check bool) "tails disagree: still syncing" true (R.syncing r);
  s.tail <- [];
  resp h ~src:1 ~from_count:2 ~upto:2 ~tail:[ (iid 3 0, 30) ] [];
  Alcotest.(check bool) "log short of the goal: still syncing" true (R.syncing r);
  s.tail <- [ (iid 3 0, 30) ];
  resp h ~src:1 ~from_count:2 ~upto:2 ~tail:[ (iid 3 0, 30) ] [];
  Alcotest.(check bool) "ended" false (R.syncing r);
  Alcotest.(check int) "resumed once" 1 s.resumed

(* ------------------------------------------------------------------ *)
(* The patience watchdog and probation.                                *)
(* ------------------------------------------------------------------ *)

(* Outside probation a lag starts a sync only once it has lasted the
   patience with no local emission; an emission restarts the wait. *)
let test_watchdog_patience () =
  let ((s, r) as h) = started () in
  let ticks_until_sync () =
    let rec go k =
      if not (R.syncing r || k > 200) then begin
        at s (now s + cfg.status_interval_us);
        hear_all h ~committed:(fun _ -> 5) ();
        R.tick r;
        go (k + 1)
      end
    in
    go 0
  in
  hear_all h ~committed:(fun _ -> 5) ();
  Alcotest.(check bool) "no sync on a status" false (R.syncing r);
  (* A lag of 20 ticks, then one emission: the wait starts over. *)
  for _ = 1 to 20 do
    at s (now s + cfg.status_interval_us);
    hear_all h ~committed:(fun _ -> 5) ();
    R.tick r
  done;
  s.log <- [ (batch (iid 1 0), 10) ];
  let start = now s in
  ticks_until_sync ();
  let waited = now s - start in
  Alcotest.(check bool)
    (Printf.sprintf "waited %d us > patience" waited)
    true
    (waited > Lyra.Config.sync_patience_us
    && waited <= Lyra.Config.sync_patience_us + (2 * cfg.status_interval_us));
  Alcotest.(check (list (pair int int))) "Sync_req from 1" [ (1, 1) ] (sync_reqs s)

(* Probation: right after a recovery, or once fewer than a quorum of
   peers were heard within the gap, a lag starts the sync on the status
   that shows it, with no patience. Status reader, isolation check:
   any message counts, whatever it carries. *)
let test_probation () =
  (* After a crash. *)
  let ((s, r) as h) = recovered () in
  hear h ~src:1 ~committed:4 ();
  hear h ~src:2 ~committed:4 ();
  Alcotest.(check bool) "recovered: sync at once" true (R.syncing r);
  Alcotest.(check int) "at once" 100_000 (now s);
  (* Isolation: only peer 1 heard for longer than the gap. *)
  let ((s, r) as h) = started () in
  at s (now s + Lyra.Config.isolation_gap_us + 1);
  hear h ~src:1 ~committed:4 ();
  Alcotest.(check bool) "no lag yet" false (R.syncing r);
  hear h ~src:2 ~committed:4 ();
  Alcotest.(check bool) "isolated: sync at once" true (R.syncing r);
  (* Heard by a quorum all along: the same lag waits for the watchdog. *)
  let ((s, r) as h) = started () in
  at s (now s + Lyra.Config.isolation_gap_us - 1);
  hear h ~src:1 ~committed:4 ();
  hear h ~src:2 ~committed:4 ();
  Alcotest.(check bool) "connected: no sync" false (R.syncing r)

(* ------------------------------------------------------------------ *)
(* Gossip claims.                                                      *)
(* ------------------------------------------------------------------ *)

(* How long claims hold takes at [boundary], sampled every tick from
   now until [until] µs, as (first, last) times at which they did. *)
let blocked_span ((s, r) : stub * R.t) ~boundary ~until ~each =
  let first = ref (-1) and last = ref (-1) in
  while now s < until do
    each ();
    if R.claims_block r boundary then begin
      if !first < 0 then first := now s;
      last := now s
    end;
    at s (now s + cfg.status_interval_us)
  done;
  (!first, !last)

(* Status reader, claim corroboration: an uncorroborated claim (one
   witness, no local instance) holds takes for one 2L window, Nudged
   once it is past L, then lapses; the same witness cannot book it
   again. A second witness, even one heard long after, corroborates it:
   it then holds takes until the instance is decided here. *)
let test_claim_corroboration_and_expiry () =
  let ((s, r) as h) = started () in
  at s 1_000_000;
  let x = iid 3 7 in
  hear h ~src:3 ~claims:[ (x, 5) ] ();
  Alcotest.(check bool) "above the boundary: no hold" false (R.claims_block r 4);
  let start = now s in
  let first, last = blocked_span h ~boundary:10 ~until:(start + (3 * l_us)) ~each:ignore in
  Alcotest.(check int) "held from the claim" start first;
  Alcotest.(check bool)
    (Printf.sprintf "held %d us: one 2L window" (last - start))
    true
    (last - start <= 2 * l_us && last - start > (2 * l_us) - cfg.status_interval_us);
  Alcotest.(check int) "expired" 0 (R.booked r);
  Alcotest.(check bool) "Nudged past L" true (nudges s >= 1);
  hear h ~src:3 ~claims:[ (x, 5) ] ();
  Alcotest.(check bool) "lapsed: the same witness books nothing" false (R.claims_block r 10);
  hear h ~src:1 ~claims:[ (x, 5) ] ();
  let first, last =
    blocked_span h ~boundary:10 ~until:(now s + (4 * l_us)) ~each:ignore
  in
  Alcotest.(check bool) "corroborated: held throughout" true (first >= 0 && last >= now s - cfg.status_interval_us);
  R.forget r x;
  Alcotest.(check bool) "decided: released" false (R.claims_block r 10);
  (* A local instance corroborates on its own. *)
  let y = iid 2 9 in
  Hashtbl.replace s.views y R.Undecided;
  hear h ~src:2 ~claims:[ (y, 6) ] ();
  let _, last = blocked_span h ~boundary:10 ~until:(now s + (3 * l_us)) ~each:ignore in
  Alcotest.(check bool) "local instance: held past 2L" true (last >= now s - cfg.status_interval_us);
  (* Accepted or decided here: nothing is booked. *)
  let z = iid 1 4 and w = iid 1 5 in
  Hashtbl.replace s.accepted z ();
  Hashtbl.replace s.views w (R.Decided { value = 0; proposal = None });
  hear h ~src:1 ~claims:[ (z, 1); (w, 1) ] ();
  Alcotest.(check int) "accepted or decided: not booked" 1 (R.booked r)

(* Known hole: the 2L bound holds per invented entry, not in total. A
   gossiper that invents a fresh entry at seq 1 on every heartbeat
   keeps the prefix stalled for good, though each entry lapses in one
   2L window. *)
let test_inventing_gossiper_stall () =
  let ((s, r) as h) = started () in
  let next = ref 0 in
  let invent () =
    incr next;
    hear h ~src:3 ~claims:[ (iid 3 (1_000 + !next), 1) ] ()
  in
  let start = now s in
  let until = start + (10 * l_us) in
  let first, last = blocked_span h ~boundary:10 ~until ~each:invent in
  Alcotest.(check int) "held from the first claim" start first;
  Alcotest.(check int) "KNOWN HOLE: still held at the end" (until - cfg.status_interval_us) last;
  (* Each entry lapses: at most one 2L window of them is booked. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d booked" (R.booked r))
    true
    (R.booked r <= (2 * l_us / cfg.status_interval_us) + 2)

(* At most 64 claims are read from one status or one Sync_resp tail. *)
let test_gossip_cap_stub () =
  let ((_, r) as h) = recovered () in
  let claims = List.init 10_000 (fun k -> (iid 3 k, 5)) in
  hear h ~src:3 ~claims ();
  Alcotest.(check int) "status: 64 booked" 64 (R.booked r);
  hear_all h ~committed:(fun _ -> 1) ();
  Alcotest.(check bool) "syncing" true (R.syncing r);
  resp h ~src:1 ~from_count:0 ~upto:1 ~tail:(List.init 10_000 (fun k -> (iid 2 k, 5))) [];
  Alcotest.(check int) "tail: 64 more" 128 (R.booked r)

(* A real node 0, not started, among stub peers that record what
   reaches them as (peer, src, body), newest first. [send ~src body]
   delivers one message to the node (1 ms wire); [run us] runs on. *)
type hand_fed = {
  net : T.msg Sim.Network.t;
  node : Lyra.Node.t;
  got : (int * int * T.body) list ref;
  send : src:int -> ?committed:int -> ?claims:(T.iid * int) list -> T.body -> unit;
  run : int -> unit;
}

let hand_fed () =
  let engine = Sim.Engine.create ~seed:5L () in
  let net =
    Sim.Network.create engine ~n ~latency:(Sim.Latency.constant 1_000)
      ~cost:(fun ~dst:_ m -> T.msg_cost Sim.Costs.default m)
      ~size:T.msg_size ()
  in
  let node = Lyra.Node.create cfg net ~id:0 () in
  let got = ref [] in
  for peer = 1 to n - 1 do
    Sim.Network.register net ~id:peer (fun ~src (m : T.msg) -> got := (peer, src, m.body) :: !got)
  done;
  let run us = Sim.Engine.run engine ~until:(Sim.Engine.now engine + us) in
  let send ~src ?committed ?claims body =
    Sim.Network.send net ~src ~dst:0 { T.status = status ?committed ?claims (); body }
  in
  { net; node; got; send; run }

(* The same at a node: one heartbeat of 10 000 invented claims. *)
let test_gossip_cap_node () =
  let h = hand_fed () in
  let claims = List.init 10_000 (fun k -> (iid 3 (1_000 + k), 5)) in
  h.send ~src:3 ~claims T.Heartbeat;
  h.run 2_000_000;
  Alcotest.(check int) "pending" 64 (Lyra.Node.pending_count h.node)

(* ------------------------------------------------------------------ *)
(* Nudge/Decided and the poke sweep.                                   *)
(* ------------------------------------------------------------------ *)

(* f+1 matching Decided notices from distinct senders settle an
   instance, with the first proposal a notice carried; f do not, nor
   does a sender counted twice, nor a split vote. *)
let test_decided_at_f_plus_1 () =
  let s, r = stub () in
  let x = iid 2 3 in
  let p = T.proposal (batch x) (Array.make n (Some 10)) in
  R.on_decided r ~src:1 x ~value:1 (Some p);
  R.on_decided r ~src:1 x ~value:1 None;
  Alcotest.(check int) "one sender: nothing" 0 (List.length s.forced);
  Alcotest.(check int) "tally open" 1 (R.tallies r);
  R.on_decided r ~src:3 x ~value:0 None;
  Alcotest.(check int) "split: nothing" 0 (List.length s.forced);
  R.on_decided r ~src:2 x ~value:1 None;
  (match s.forced with
  | [ (i, 1, Some q) ] when T.iid_equal i x && q == p -> ()
  | _ -> Alcotest.fail "not decided 1 with the notice's proposal");
  Alcotest.(check int) "tally dropped" 0 (R.tallies r);
  R.on_decided r ~src:3 x ~value:1 None;
  Alcotest.(check int) "decided: no more" 1 (List.length s.forced);
  let y = iid 1 8 in
  R.on_decided r ~src:2 y ~value:0 None;
  R.on_decided r ~src:3 y ~value:0 None;
  (match s.forced with
  | (i, 0, None) :: _ when T.iid_equal i y -> ()
  | _ -> Alcotest.fail "not decided 0");
  R.on_decided r ~src:2 (iid 1 9) ~value:2 None;
  Alcotest.(check bool) "invalid value: no contact" false (Hashtbl.mem s.views (iid 1 9))

(* A Nudge is answered with the decision, or a poke while undecided;
   one about an unknown instance goes unanswered. *)
let test_nudge_answers () =
  let s, r = stub () in
  let x = iid 2 3 and y = iid 2 4 in
  Hashtbl.replace s.views x (R.Decided { value = 0; proposal = None });
  Hashtbl.replace s.views y R.Undecided;
  R.on_nudge r ~src:3 x;
  R.on_nudge r ~src:3 y;
  R.on_nudge r ~src:3 (iid 2 5);
  (match s.sent with
  | [ (Some 3, T.Decided { iid = i; value = 0; proposal = None }) ] when T.iid_equal i x -> ()
  | _ -> Alcotest.fail "not one Decided answer");
  Alcotest.(check int) "one poke" 1 (List.length s.pokes)

(* The poke sweep: every retransmit interval, each instance undecided
   for longer than retransmit_after is poked and Nudged, in iid order;
   younger ones are not, and a crashed node sends nothing. *)
let test_poke_sweep () =
  let s, r = stub () in
  let old = iid 1 0 and young = iid 2 0 in
  let after = cfg.retransmit_after_us and every = cfg.retransmit_interval_us in
  s.undecided <- [ (old, 0); (young, after) ];
  R.sweep r;
  Alcotest.(check int) "nothing old yet" 0 (nudges s);
  (* Sweeps at 0, every, 2 every, ...: the old one is due from after + every. *)
  at s (after + every + 1);
  Alcotest.(check int) "old one: poked" 1 (List.length s.pokes);
  Alcotest.(check int) "old one: nudged" 1 (nudges s);
  at s ((2 * after) + every + 1);
  Alcotest.(check int) "both, every interval" 6 (nudges s);
  Alcotest.(check bool) "in iid order" true
    (match s.pokes with y :: o :: _ -> T.iid_equal y young && T.iid_equal o old | _ -> false);
  s.crashed <- true;
  at s ((3 * after) + 1);
  Alcotest.(check int) "crashed: silent" 6 (nudges s)

(* ------------------------------------------------------------------ *)
(* Known hole: a lying sync server.                                    *)
(* ------------------------------------------------------------------ *)

(* A real node among stub peers. It is crashed and recovered; peers 1
   and 2 then claim a log of 5 entries, so it pulls from peer 1. One
   Sync_resp from peer 1 makes it emit an entry nobody proposed:
   synced entries skip the reveal quorum and trust the server picked. *)
let test_lying_sync_server () =
  let h = hand_fed () in
  Sim.Network.crash h.net 0;
  h.run 500_000;
  Sim.Network.recover h.net 0;
  h.send ~src:1 ~committed:5 T.Heartbeat;
  h.send ~src:2 ~committed:5 T.Heartbeat;
  h.run 50_000;
  let reqs =
    List.filter_map
      (function p, 0, T.Sync_req { from_count } -> Some (p, from_count) | _ -> None)
      !(h.got)
  in
  Alcotest.(check (list (pair int int))) "Sync_req to peer 1" [ (1, 0) ] reqs;
  let forged = batch (iid 3 999) in
  h.send ~src:1 (T.Sync_resp { from_count = 0; upto = 1; entries = [ (forged, 42) ]; tail = [] });
  h.run 50_000;
  match Lyra.Node.output_log h.node with
  | [ o ] ->
      Alcotest.(check bool) "KNOWN HOLE: the forged entry is emitted" true
        (T.iid_equal o.batch.iid (iid 3 999) && o.seq = 42)
  | l -> Alcotest.failf "%d entries emitted" (List.length l)

let suite =
  [
    Alcotest.test_case "status reader: sync target" `Quick test_sync_target;
    Alcotest.test_case "sync contiguous slice" `Quick test_sync_contiguous_slice;
    Alcotest.test_case "sync divergence abort" `Quick test_sync_divergence_abort;
    Alcotest.test_case "status reader: sync goal and end" `Quick test_sync_goal_and_end;
    Alcotest.test_case "watchdog patience" `Quick test_watchdog_patience;
    Alcotest.test_case "status reader: probation" `Quick test_probation;
    Alcotest.test_case "status reader: claim corroboration and expiry" `Quick
      test_claim_corroboration_and_expiry;
    Alcotest.test_case "known hole: inventing gossiper stall" `Quick test_inventing_gossiper_stall;
    Alcotest.test_case "gossip cap (host)" `Quick test_gossip_cap_stub;
    Alcotest.test_case "gossip cap (node)" `Quick test_gossip_cap_node;
    Alcotest.test_case "decided at f+1" `Quick test_decided_at_f_plus_1;
    Alcotest.test_case "nudge answers" `Quick test_nudge_answers;
    Alcotest.test_case "poke sweep" `Quick test_poke_sweep;
    Alcotest.test_case "known hole: lying sync server" `Quick test_lying_sync_server;
  ]
