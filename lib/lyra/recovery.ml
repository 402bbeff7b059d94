type view =
  | Absent
  | Undecided
  | Decided of { value : int; proposal : Types.proposal option }

type host = {
  config : Config.t;
  self : int;
  now : unit -> int;
  crashed : unit -> bool;
  send : dst:int -> Types.body -> unit;
  broadcast : Types.body -> unit;
  schedule : delay_us:int -> (unit -> unit) -> unit;
  output_count : unit -> int;
  log_length : unit -> int;
  accepted : Types.iid -> bool;
  validated : Types.iid -> bool;
  instance : Types.iid -> view;
  contact : Types.iid -> view;
  poke : Types.iid -> unit;
  iter_undecided : (Types.iid -> created_at:int -> unit) -> unit;
  force_decide : Types.iid -> value:int -> Types.proposal option -> unit;
  log_slice : from:int -> (Types.batch * int) list;
  unemitted_tail : unit -> (Types.iid * int) list;
  adopt : Types.batch -> seq:int -> bool;
  resume : unit -> unit;
}

(* Who has ever gossiped an instance as accepted. Kept apart from the
   booked claims so corroboration accumulates across a booking's
   expiry and re-creation: a claim whose second witness is behind a
   partition must still corroborate once the partition heals, even if
   the booking lapsed in between. *)
type claim = {
  peers : Dbft.Senders.t;  (** distinct claiming peers, over all time *)
  mutable lapsed : bool;  (** expired uncorroborated at least once *)
}

(* A claim holding this node's takes at and above [seq]. *)
type booking = {
  seq : int;
  added_at : int;
  mutable nudged_at : int;  (** last active-repair Nudge for it *)
}

(* Tally of Decided notices for an instance this node has not decided
   itself; adopted once f+1 distinct senders agree on the value. *)
type tally = {
  senders : Dbft.Senders.t;
  mutable ones : int;
  mutable zeros : int;
  mutable proposal : Types.proposal option;
}

type t = {
  host : host;
  claims : claim Types.Iid_tbl.t;  (** gossip witnesses per instance *)
  (* Ordered by iid, so the commit check walks it in iid order. *)
  mutable bookings : booking Types.Iid_map.t;
  peer_committed : int array;  (** log lengths claimed in statuses *)
  goal_claims : int array;
      (** per peer, the log length claimed by its first heartbeat since
          the sync started; -1 until then *)
  scratch : int array;  (** [sync_target]'s and [sync_goal]'s selection buffer *)
  isolation : Isolation.t;
  mutable probation_until : int;  (** heightened lag sensitivity window *)
  mutable syncing : bool;  (** output emission paused, pulling the log *)
  mutable sync_req_at : int;
  mutable lag_since : (int * int) option;  (** (since_us, output_count then) *)
  mutable synced_entries : int;
  mutable syncs_started : int;
  tallies : tally Types.Iid_tbl.t;
}

let create host =
  let n = host.config.Config.n in
  {
    host;
    claims = Types.Iid_tbl.create 32;
    bookings = Types.Iid_map.empty;
    peer_committed = Array.make n 0;
    goal_claims = Array.make n (-1);
    scratch = Array.make n 0;
    isolation = Isolation.create ~n ~id:host.self ~quorum:(Config.quorum host.config);
    probation_until = 0;
    syncing = false;
    sync_req_at = 0;
    lag_since = None;
    synced_entries = 0;
    syncs_started = 0;
    tallies = Types.Iid_tbl.create 8;
  }

let syncing t = t.syncing

let booked t = Types.Iid_map.cardinal t.bookings

let synced_entries t = t.synced_entries

let syncs_started t = t.syncs_started

let tallies t = Types.Iid_tbl.length t.tallies

let f t = Config.f t.host.config

let gossip_cap = 64

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let capped l = take gossip_cap l

let rec iter_capped k fn = function
  | x :: rest when k > 0 ->
      fn x;
      iter_capped (k - 1) fn rest
  | _ -> ()

(* f+1 distinct witnesses over all time include a correct node. *)
let corroborated t c = Dbft.Senders.count c.peers > f t

(* ------------------------------------------------------------------ *)
(* Gossip claims.                                                      *)
(* ------------------------------------------------------------------ *)

(* A peer claims [iid] accepted at [seq] (gossip, or a sync server's
   unemitted tail). Until decided here, the claim is booked and holds
   takes at higher seqs (see [claims_block]). Status reader: reads
   [accepted_recent] of every status that carries it (heartbeats),
   however old; a claim counts for as long as the instance is
   undecided here. *)
let absorb_claim t ~src iid seq =
  let h = t.host in
  if not (h.accepted iid) then begin
    (* Corroboration: record every distinct peer that ever claimed
       this entry accepted. *)
    let cl =
      match Types.Iid_tbl.find_opt t.claims iid with
      | Some c -> c
      | None ->
          let c = { peers = Dbft.Senders.create h.config.n; lapsed = false } in
          Types.Iid_tbl.replace t.claims iid c;
          c
    in
    ignore (Dbft.Senders.add cl.peers src : bool);
    if not (Types.Iid_map.mem iid t.bookings || h.validated iid) then begin
      let decided =
        match h.instance iid with Decided _ -> true | Absent | Undecided -> false
      in
      (* A claim that already expired once is only re-admitted when
         corroborated, so a lone Byzantine gossiper stalls the prefix
         for at most one 2L window per invented entry. The bound holds
         per entry, not in total: a gossiper that invents a fresh entry
         on every heartbeat keeps one booked at all times and stalls
         the prefix for good (test_recovery pins this hole). What the
         compound-fault sweep in test_faults checks is the honest side:
         no genuine entry expires before it is learned, which would
         show up as a late accept or a prefix break. *)
      if (not decided) && ((not cl.lapsed) || corroborated t cl) then
        t.bookings <-
          Types.Iid_map.add iid { seq; added_at = h.now (); nudged_at = 0 } t.bookings
    end
  end

(* A claim this node never decided. When it is corroborated (f+1
   distinct witnesses over all time, or a local instance, which means
   real VVB traffic was seen) the entry is genuinely accepted somewhere
   and skipping it would fork the log — e.g. this node was crashed or
   partitioned through its whole exchange. Those block for as long as
   it takes and are actively repaired with a Nudge pull (peers answer
   Decided; f+1 notices settle it). Only uncorroborated claims — a
   Byzantine gossiper inventing entries to stall the prefix — expire,
   after 2L; they are nudged too, since an honest answer both
   corroborates (the notice creates a local instance) and progresses
   the repair. Invariant: among correct peers every genuine claim is
   corroborated before it can expire, so the expiry only ever drops an
   invented entry. Counting every claim as corroborated changes no
   safety outcome of the FAULT SWEEP (EXPERIMENTS.md); counting only a
   local instance breaks prefix agreement there. *)
let claims_block t boundary =
  if Types.Iid_map.is_empty t.bookings then false
  else begin
    let h = t.host in
    let now = h.now () in
    let l_us = Config.l_us h.config in
    let blocking = ref false in
    let expired = ref [] in
    let hold iid b =
      blocking := true;
      if
        now - b.added_at > l_us
        && now - b.nudged_at > h.config.retransmit_interval_us
        && not (h.crashed ())
      then begin
        b.nudged_at <- now;
        h.broadcast (Types.Nudge { iid })
      end
    in
    Types.Iid_map.iter
      (fun iid b ->
        if b.seq <= boundary then begin
          let claim = Types.Iid_tbl.find_opt t.claims iid in
          let corroborated =
            (match h.instance iid with Absent -> false | Undecided | Decided _ -> true)
            || match claim with Some c -> corroborated t c | None -> false
          in
          if corroborated || now - b.added_at <= 2 * l_us then hold iid b
          else begin
            (match claim with Some c -> c.lapsed <- true | None -> ());
            expired := iid :: !expired
          end
        end)
      t.bookings;
    t.bookings <-
      List.fold_left (fun m iid -> Types.Iid_map.remove iid m) t.bookings !expired;
    !blocking
  end

let unbook t iid = t.bookings <- Types.Iid_map.remove iid t.bookings

(* The local decision settles the instance for good: its claims and
   any Decided tally are no longer needed. *)
let forget t iid =
  unbook t iid;
  Types.Iid_tbl.remove t.claims iid;
  Types.Iid_tbl.remove t.tallies iid

(* ------------------------------------------------------------------ *)
(* Log sync.                                                           *)
(*                                                                     *)
(* A node that was crashed (or cut off, or starved by a lossy link)    *)
(* misses both the BOC traffic of instances decided in its absence and *)
(* the Reveal shares of entries committed then — neither is            *)
(* retransmitted by the steady-state protocol, because statuses only   *)
(* gossip entries not yet taken. The repair is a pull: when the        *)
(* (f+1)-th highest log length claimed by peers is ahead of our        *)
(* emitted count (at once in probation, else after sync_patience_us    *)
(* with no local emission), we pause emission and pull from a peer     *)
(* claiming that length. It serves the slice of its emitted log past   *)
(* ours and its tail: the entries it has taken but not yet emitted.    *)
(* Synced entries bypass the reveal quorum and trust the one server    *)
(* picked: a correct server only serves what it has itself emitted, so *)
(* the quorum already formed, but a Byzantine one can make this node   *)
(* emit an entry nobody proposed (a known hole, pinned in              *)
(* test_recovery). Tail entries are read as gossip claims, so an entry *)
(* we never heard of holds our takes above it from then on, and we     *)
(* learn it (and send our Reveal share for it) through the Nudge pull. *)
(* ------------------------------------------------------------------ *)

(* At least one of the f+1 highest claims is from a correct process,
   so the target prefix really exists. Status reader: reads the
   [committed] scalar of every message from every peer, keeping each
   peer's highest; a claim stays in force however old it is. *)
let sync_target t =
  let claims = t.scratch in
  Array.blit t.peer_committed 0 claims 0 t.host.config.n;
  claims.(t.host.self) <- t.host.output_count ();
  Order_stat.kth_largest ~scratch:claims claims (f t)

let send_sync_req t =
  let h = t.host in
  t.sync_req_at <- h.now ();
  let target = sync_target t in
  (* Deterministic choice: lowest-id peer claiming the target prefix. *)
  let peer = ref (-1) in
  Array.iteri
    (fun i c -> if !peer < 0 && (not (Int.equal i h.self)) && c >= target then peer := i)
    t.peer_committed;
  if !peer >= 0 then h.send ~dst:!peer (Types.Sync_req { from_count = h.output_count () })

let start_sync t =
  t.syncing <- true;
  t.syncs_started <- t.syncs_started + 1;
  Array.fill t.goal_claims 0 t.host.config.n (-1);
  send_sync_req t

(* The sync's goal: the (f+1)-th highest log length claimed in the
   first heartbeat each peer sent after the sync started (received
   after it started, to be exact). One of those f+1 is a correct
   process that had taken that many entries. The goal is fixed by
   those heartbeats: chasing the live target would keep a node syncing
   for as long as the cluster keeps taking entries. Unknown (max_int)
   until f+1 peers have heartbeated. Status reader: reads [committed]
   of heartbeats only, each peer's first one received while syncing;
   nothing older than the sync counts. *)
let sync_goal t =
  let goal = Order_stat.kth_largest ~scratch:t.scratch t.goal_claims (f t) in
  if goal < 0 then max_int else goal

let on_heartbeat t ~src ~committed =
  if t.syncing && t.goal_claims.(src) < 0 && not (Int.equal src t.host.self) then
    t.goal_claims.(src) <- committed

let end_sync t =
  t.syncing <- false;
  t.lag_since <- None;
  t.host.resume ()

(* Heartbeat-driven lag watchdog. Transient lag is normal (peers take
   entries a reveal round trip before anyone emits them), so outside
   probation a sync only starts when the lag persists with zero local
   progress for the whole patience window — a healthy node always
   emits again long before that. *)
let tick t =
  let h = t.host in
  if not (h.crashed ()) then begin
    let now = h.now () in
    if sync_target t <= h.output_count () then begin
      t.lag_since <- None;
      if t.syncing then end_sync t
    end
    else if t.syncing then begin
      (* Pull in flight; re-request if the response itself was lost or
         the server had nothing to settle the sync with. *)
      if now - t.sync_req_at > 2 * h.config.delta_us then send_sync_req t
    end
    else
      match t.lag_since with
      | Some (since, count) when Int.equal count (h.output_count ()) ->
          if now - since > Config.sync_patience_us then start_sync t
      | _ -> t.lag_since <- Some (now, h.output_count ())
  end

let on_sync_req t ~src ~from_count =
  let h = t.host in
  if from_count >= 0 then
    h.send ~dst:src
      (Types.Sync_resp
         {
           from_count;
           upto = h.output_count ();
           entries = h.log_slice ~from:from_count;
           tail = capped (h.unemitted_tail ());
         })

(* Two commit orders that start at the same position agree while
   neither has an entry where the other has a different one. *)
let rec orders_agree a b =
  match (a, b) with
  | (x, _) :: a, (y, _) :: b -> Types.iid_equal x y && orders_agree a b
  | _ -> true

(* Adopts the entries in order; false at the first one this node had
   already emitted: the server's log diverges from ours (a Byzantine
   server). The rest are dropped; the next tick re-pulls. *)
let rec adopt_all t = function
  | [] -> true
  | ((batch : Types.batch), seq) :: rest ->
      t.host.adopt batch ~seq
      && begin
           forget t batch.iid;
           t.synced_entries <- t.synced_entries + 1;
           adopt_all t rest
         end

(* A sync ends once our log holds the goal's length, the server has
   emitted nothing past us and its tail agrees with ours: nothing we
   have taken sits where the server has a different entry, and every
   entry it has that we lack is now a claim holding our takes.
   Otherwise we keep pulling. The goal counts taken entries, not
   emitted ones: after a quorum loss every node is in probation and
   syncing, and a paused node emits nothing anyone could pull. *)
let on_sync_resp t ~src ~from_count ~upto entries tail =
  let h = t.host in
  (* Apply only an exactly-contiguous slice; anything else is stale
     (an earlier duplicate request) and a fresh pull will follow. *)
  if t.syncing && Int.equal from_count (h.output_count ()) then begin
    iter_capped gossip_cap (fun (iid, seq) -> absorb_claim t ~src iid seq) tail;
    let ok = adopt_all t entries in
    if h.output_count () < upto then begin
      if ok then send_sync_req t
    end
    else if
      Int.equal (h.output_count ()) upto
      && h.log_length () >= sync_goal t
      && orders_agree (h.unemitted_tail ()) tail
    then end_sync t
  end

(* ------------------------------------------------------------------ *)
(* Status, isolation probation and crash recovery.                     *)
(* ------------------------------------------------------------------ *)

(* Isolation probation. A node cut off from a quorum (crash, minority
   partition) may hold a stale view of the log: entries taken in its
   absence are never gossiped to it (heartbeats only carry entries not
   yet taken). Once reconnected, fresh statuses can advance its commit
   boundary past those missed entries and it would emit the log out of
   order — and the patience-based watchdog is too slow to stop that.
   So: whenever fewer than a quorum of peers have been heard within
   isolation_gap_us, open a probation window in which any observed lag
   starts the sync pull immediately. The lag shows before the node can
   emit past a missed entry: emitting the next entry takes 2f+1 Reveal
   shares, at least 2f from peers that took it after the missed one,
   and each share rides a status whose log-length claim counts the
   missed entry. With no Byzantine peer that is at least f+1 claims,
   enough to move the sync target. (Claims of emitted entries only
   would lose this race: peers that have taken but not yet revealed
   the missed entry would look level.) Outages shorter than the gap
   cannot hide a full commit (the commit pipeline alone takes longer),
   so the window misses nothing. The compound-fault sweep in
   test_faults checks the outcome: no prefix break and no late accept.
   On healthy runs every peer heartbeats every 25 ms and the quorum
   check never fails. Status reader: reads no field, only the arrival
   of any message; a peer counts as heard for isolation_gap_us. *)
let on_status t ~src ~now (status : Types.status) =
  if not (Isolation.receive t.isolation ~src ~now) then
    t.probation_until <- now + Config.isolation_gap_us;
  (* Monotone: reordered deliveries must not shrink a peer's claim. *)
  if status.committed > t.peer_committed.(src) then
    t.peer_committed.(src) <- status.committed;
  (* Gossip is read on every heartbeat, changed or not: a peer rejoining
     from a partition re-announces an unchanged accepted set, and that
     re-announcement may be exactly the corroborating witness (or
     re-creation trigger) for an entry whose booking lapsed in the
     meantime. *)
  iter_capped gossip_cap (fun (iid, seq) -> absorb_claim t ~src iid seq) status.accepted_recent;
  if (not t.syncing) && now <= t.probation_until && sync_target t > t.host.output_count ()
  then start_sync t

(* Batches held in the mempool during a crash flow again on recovery;
   missed commits are repaired by the sync pull once statuses resume
   and the lag becomes visible — probation makes that immediate. *)
let on_recover t = t.probation_until <- t.host.now () + Config.isolation_gap_us

(* ------------------------------------------------------------------ *)
(* Lossy-link repair: nudges, decision notices and the poke sweep.     *)
(* ------------------------------------------------------------------ *)

let on_nudge t ~src iid =
  match t.host.instance iid with
  | Absent -> ()
  | Decided { value; proposal } ->
      t.host.send ~dst:src (Types.Decided { iid; value; proposal })
  | Undecided ->
      (* Both stuck: re-offer our contribution so quorums re-form. *)
      t.host.poke iid

let on_decided t ~src iid ~value proposal =
  if value = 0 || value = 1 then
    match t.host.contact iid with
    | Absent | Decided _ -> ()
    | Undecided ->
        let tally =
          match Types.Iid_tbl.find_opt t.tallies iid with
          | Some d -> d
          | None ->
              let d =
                {
                  senders = Dbft.Senders.create t.host.config.n;
                  ones = 0;
                  zeros = 0;
                  proposal = None;
                }
              in
              Types.Iid_tbl.replace t.tallies iid d;
              d
        in
        if Dbft.Senders.add tally.senders src then begin
          if value = 1 then begin
            tally.ones <- tally.ones + 1;
            if tally.proposal = None then tally.proposal <- proposal
          end
          else tally.zeros <- tally.zeros + 1;
          (* f+1 matching notices contain at least one correct sender.
             The decision drops the tally ([forget]). *)
          let bar = f t + 1 in
          if tally.ones >= bar then t.host.force_decide iid ~value:1 tally.proposal
          else if tally.zeros >= bar then t.host.force_decide iid ~value:0 None
        end

(* Periodic sweep: any instance still undecided past the patience gets
   its state re-broadcast plus a Nudge pulling peers' state. On healthy
   runs every instance decides well inside the patience, so the sweep
   sends nothing and the goldens are untouched. *)
let rec sweep t =
  let h = t.host in
  (if not (h.crashed ()) then
     let now = h.now () in
     h.iter_undecided (fun iid ~created_at ->
         if now - created_at > h.config.retransmit_after_us then begin
           h.poke iid;
           h.broadcast (Types.Nudge { iid })
         end));
  h.schedule ~delay_us:h.config.retransmit_interval_us (fun () -> sweep t)
