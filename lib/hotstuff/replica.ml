(* Block ids key the store, the vote tallies and the catch-up requests;
   view numbers key the new-view tallies. Typed tables hash and compare
   without the polymorphic primitives, and none is ever iterated, so
   their bucket order reaches nothing observable. *)
module Str_tbl = Hashtbl.Make (String)
module Int_tbl = Lyra.Types.Int_tbl

type qc = { q_block : string; q_height : int; voters : Dbft.Senders.t }

type 'cmd block = {
  b_id : string;
  height : int;
  parent : string;
  justify : qc;
  cmds : 'cmd list;
  proposer : int;
}

type 'cmd msg =
  | Proposal of 'cmd block
  | Vote of { block_id : string; height : int }
  | New_view of { view : int; qc : qc }
  | Catchup_req of { missing : string; have : int }
  | Catchup_resp of { blocks : 'cmd block list }

type 'cmd transport = {
  tr_n : int;
  tr_broadcast : 'cmd msg -> unit;
  tr_send : dst:int -> 'cmd msg -> unit;
  tr_schedule : delay_us:int -> (unit -> unit) -> unit;
}

let qc_size qc = 48 + (8 * Dbft.Senders.count qc.voters)

let block_size ~cmd_size b =
  96 + qc_size b.justify + List.fold_left (fun acc c -> acc + cmd_size c) 0 b.cmds

let msg_size ~cmd_size = function
  | Proposal b -> block_size ~cmd_size b
  | Vote _ -> 96 (* block id + signature share *)
  | New_view { qc; _ } -> 40 + qc_size qc
  | Catchup_req _ -> 72 (* block id + height *)
  | Catchup_resp { blocks } ->
      List.fold_left (fun acc b -> acc + block_size ~cmd_size b) 16 blocks

let genesis_id = "genesis"

let genesis_qc = { q_block = genesis_id; q_height = 0; voters = Dbft.Senders.create 0 }

let genesis =
  { b_id = genesis_id; height = 0; parent = genesis_id; justify = genesis_qc; cmds = []; proposer = 0 }

type catchup = { mutable sent : int; mutable inflight : bool }

type 'cmd t = {
  tr : 'cmd transport;
  id : int;
  n : int;
  f : int;
  delta_us : int;
  block_capacity : int;
  cmd_id : 'cmd -> string;  (** only for block ids *)
  cmd_key : 'cmd -> int;  (** the pool's key *)
  on_commit : height:int -> 'cmd list -> unit;
  blocks : 'cmd block Str_tbl.t;
  votes : Dbft.Senders.t Str_tbl.t;  (** voters per block id, as its next leader *)
  new_views : Dbft.Senders.t Int_tbl.t;  (** New_view senders per view led *)
  pool : 'cmd Cmd_pool.t;
  mutable view_no : int;
  mutable vheight : int;
  mutable high_qc : qc;
  mutable locked_qc : qc;
  mutable last_committed : int;
  mutable proposed_in : int;  (** last view this replica proposed in *)
  mutable blocks_proposed : int;
  mutable started : bool;
  catchup : catchup Str_tbl.t;  (** missing block ids requested *)
  mutable highest : 'cmd block;  (** highest stored block *)
}

let view t = t.view_no

let committed_height t = t.last_committed

let blocks_proposed t = t.blocks_proposed

let pending_count t = Cmd_pool.live t.pool

let leader t v = v mod t.n

let block_id ~height ~parent ~proposer cmd_ids =
  Crypto.Sha256.digest_list
    (string_of_int height :: parent :: string_of_int proposer :: cmd_ids)

let find_block t id = Str_tbl.find_opt t.blocks id

(* b extends the locked block if the locked block is an ancestor. *)
let rec extends t ~anc id =
  String.equal id anc
  ||
  match find_block t id with
  | None -> false
  | Some b -> b.height > 0 && extends t ~anc b.parent

let update_high_qc t qc = if qc.q_height > t.high_qc.q_height then t.high_qc <- qc

let broadcast t m = t.tr.tr_broadcast m

let send t ~dst m = t.tr.tr_send ~dst m

(* A block we need is not in the store (its proposal was lost): pull it
   from a replica that certified it: [via]'s proposer first, then each
   voter of [via]'s QC in turn, never this replica. The request is
   deferred by 2Δ and only sent if the block is *still* missing, so a
   merely out-of-order arrival never costs a message; the in-flight mark
   expires so a lost response leads to a re-request. *)
let request_catchup t ~via ~missing =
  let c =
    match Str_tbl.find_opt t.catchup missing with
    | Some c -> c
    | None ->
        let c = { sent = 0; inflight = false } in
        Str_tbl.replace t.catchup missing c;
        c
  in
  if not c.inflight then begin
    c.inflight <- true;
    t.tr.tr_schedule ~delay_us:(2 * t.delta_us) (fun () ->
        if Option.is_none (find_block t missing) then begin
          let certifiers =
            List.filter (fun r -> not (Int.equal r t.id))
              (via.proposer
              :: List.filter
                   (fun r -> not (Int.equal r via.proposer))
                   (Dbft.Senders.to_list via.justify.voters))
          in
          if certifiers <> [] then begin
            let dst = List.nth certifiers (c.sent mod List.length certifiers) in
            c.sent <- c.sent + 1;
            send t ~dst (Catchup_req { missing; have = t.last_committed })
          end;
          t.tr.tr_schedule ~delay_us:(8 * t.delta_us) (fun () -> c.inflight <- false)
        end)
  end

(* Commit every uncommitted ancestor of [b] (inclusive), oldest first.
   If an ancestor is missing the whole chain is refused — committing
   around a hole would execute history out of order on this replica —
   and the gap is fetched instead. *)
let commit_chain t b =
  let rec ancestors acc blk =
    if blk.height <= t.last_committed then Ok acc
    else
      match find_block t blk.parent with
      | Some p -> ancestors (blk :: acc) p
      | None -> Error blk
  in
  match ancestors [] b with
  | Error blocked -> request_catchup t ~via:blocked ~missing:blocked.parent
  | Ok chain ->
      List.iter
        (fun blk ->
          if blk.height > t.last_committed then begin
            t.last_committed <- blk.height;
            (* Different leaders may include the same command before
               learning it committed; deliver each command once. *)
            let fresh =
              List.filter (fun c -> Cmd_pool.commit t.pool (t.cmd_key c)) blk.cmds
            in
            if fresh <> [] then t.on_commit ~height:blk.height fresh
          end)
        chain

(* Three-chain rule for bstar: b2 = justify(bstar), b1 = justify(b2),
   b0 = justify(b1); if the links are parent-consecutive, b0 is
   committed. A link into a missing block triggers catch-up. *)
let try_commit t bstar =
  let fetch t via = request_catchup t ~via ~missing:via.justify.q_block in
  match find_block t bstar.justify.q_block with
  | None -> fetch t bstar
  | Some b2 -> (
      (* Lock on the middle block's QC. *)
      if b2.justify.q_height > t.locked_qc.q_height then
        t.locked_qc <- b2.justify;
      match find_block t b2.justify.q_block with
      | None -> fetch t b2
      | Some b1 -> (
          match find_block t b1.justify.q_block with
          | None -> fetch t b1
          | Some b0 ->
              if
                String.equal b2.parent b1.b_id
                && String.equal b1.parent b0.b_id
              then commit_chain t b0))

(* Insert a valid, unseen block; false if it was not stored. *)
let store t b =
  let fresh =
    b.height > 0
    && Int.equal (leader t b.height) b.proposer
    && not (Str_tbl.mem t.blocks b.b_id)
  in
  if fresh then begin
    Str_tbl.replace t.blocks b.b_id b;
    Str_tbl.remove t.catchup b.b_id;
    update_high_qc t b.justify;
    if b.height > t.highest.height then t.highest <- b
  end;
  fresh

(* Blocks are never removed, so a three-chain that lacked a block can
   only complete when that block is stored: evaluating each newly
   stored block ([b :: rest]), and the highest stored one, whose chain
   commits every ancestor, misses no commit. [before] is the highest
   block before them: only [store] moves [t.highest], so if it has not
   moved, the highest is not among them and is evaluated last. A loop,
   not [List.iter], so that a proposal's evaluation allocates nothing. *)
let rec evaluate t ~before b rest =
  try_commit t b;
  match rest with
  | next :: rest -> evaluate t ~before next rest
  | [] -> if t.highest == before then try_commit t t.highest

let rec enter_view t v =
  if v > t.view_no then begin
    t.view_no <- v;
    arm_view_timer t v;
    maybe_propose t
  end

and arm_view_timer t v =
  t.tr.tr_schedule ~delay_us:(4 * t.delta_us) (fun () ->
      if Int.equal t.view_no v then begin
        (* View failed: tell the next leader and move on. *)
        send t ~dst:(leader t (v + 1)) (New_view { view = v; qc = t.high_qc });
        enter_view t (v + 1)
      end)

and maybe_propose t =
  let v = t.view_no in
  if t.started && Int.equal t.id (leader t v) && t.proposed_in < v then begin
    let quorum_newviews =
      match Int_tbl.find_opt t.new_views v with
      | Some senders -> Dbft.Senders.count senders >= t.n - t.f
      | None -> false
    in
    if Int.equal t.high_qc.q_height (v - 1) || quorum_newviews then begin
      t.proposed_in <- v;
      t.blocks_proposed <- t.blocks_proposed + 1;
      let cmds = Cmd_pool.take t.pool t.block_capacity in
      let parent = t.high_qc.q_block in
      let b_id = block_id ~height:v ~parent ~proposer:t.id (List.map t.cmd_id cmds) in
      let b =
        { b_id; height = v; parent; justify = t.high_qc; cmds; proposer = t.id }
      in
      broadcast t (Proposal b)
    end
  end

let on_proposal t b =
  let before = t.highest in
  if store t b then begin
    (* safeNode: extend the locked block, or see a higher QC. *)
    let safe =
      extends t ~anc:t.locked_qc.q_block b.b_id
      || b.justify.q_height > t.locked_qc.q_height
    in
    if b.height > t.vheight && safe then begin
      t.vheight <- b.height;
      send t
        ~dst:(leader t (b.height + 1))
        (Vote { block_id = b.b_id; height = b.height })
    end;
    (* Evaluate after voting: [safe] reads the lock [b] may raise. *)
    evaluate t ~before b [];
    enter_view t (b.height + 1)
  end

(* Serve a peer's gap: the chain from just above [have] up to
   [missing], oldest first, capped so one response stays bounded (a
   larger gap converges over multiple rounds). *)
let on_catchup_req t ~src ~missing ~have =
  let rec collect acc id count =
    if count >= 64 then acc
    else
      match find_block t id with
      | None -> acc
      | Some b ->
          if b.height <= have || b.height <= 0 then acc
          else collect (b :: acc) b.parent (count + 1)
  in
  match collect [] missing 0 with
  | [] -> ()
  | blocks -> send t ~dst:src (Catchup_resp { blocks })

let on_catchup_resp t blocks =
  let before = t.highest in
  match List.filter (store t) blocks with
  | b :: rest -> evaluate t ~before b rest
  | [] -> try_commit t t.highest

let on_vote t ~src ~block_id ~height =
  (* Collect votes if we lead the next view. *)
  if Int.equal (leader t (height + 1)) t.id then begin
    let voters =
      match Str_tbl.find_opt t.votes block_id with
      | Some voters -> voters
      | None ->
          let voters = Dbft.Senders.create t.n in
          Str_tbl.replace t.votes block_id voters;
          voters
    in
    if Dbft.Senders.add voters src && Int.equal (Dbft.Senders.count voters) (t.n - t.f)
    then begin
      (* A copy: votes that arrive after the quorum must not grow
         the certificate. *)
      update_high_qc t
        { q_block = block_id; q_height = height; voters = Dbft.Senders.copy voters };
      enter_view t (height + 1);
      maybe_propose t
    end
  end

let on_new_view t ~src ~view_v qc =
  update_high_qc t qc;
  if Int.equal (leader t (view_v + 1)) t.id then begin
    let senders =
      match Int_tbl.find_opt t.new_views (view_v + 1) with
      | Some senders -> senders
      | None ->
          let senders = Dbft.Senders.create t.n in
          Int_tbl.replace t.new_views (view_v + 1) senders;
          senders
    in
    if Dbft.Senders.add senders src && Dbft.Senders.count senders >= t.n - t.f then begin
      enter_view t (view_v + 1);
      maybe_propose t
    end
  end

let handle t ~src msg =
  match msg with
  | Proposal b -> on_proposal t b
  | Vote { block_id; height } -> on_vote t ~src ~block_id ~height
  | New_view { view = v; qc } -> on_new_view t ~src ~view_v:v qc
  | Catchup_req { missing; have } -> on_catchup_req t ~src ~missing ~have
  | Catchup_resp { blocks } -> on_catchup_resp t blocks

let create tr ~id ~delta_us ~block_capacity ~cmd_id ~cmd_key ~on_commit () =
  let n = tr.tr_n in
  let t =
    {
      tr;
      id;
      n;
      f = Dbft.Quorums.max_faulty n;
      delta_us;
      block_capacity;
      cmd_id;
      cmd_key;
      on_commit;
      blocks = Str_tbl.create 256;
      votes = Str_tbl.create 256;
      new_views = Int_tbl.create 16;
      pool = Cmd_pool.create ~n;
      view_no = 0;
      vheight = 0;
      high_qc = genesis_qc;
      locked_qc = genesis_qc;
      last_committed = 0;
      proposed_in = 0;
      blocks_proposed = 0;
      started = false;
      catchup = Str_tbl.create 8;
      highest = genesis;
    }
  in
  Str_tbl.replace t.blocks genesis_id genesis;
  t

let start t =
  if not t.started then begin
    t.started <- true;
    t.view_no <- 1;
    arm_view_timer t 1;
    maybe_propose t
  end

let submit t cmd = if Cmd_pool.submit t.pool (t.cmd_key cmd) cmd then maybe_propose t

let network_transport net ~id =
  {
    tr_n = Sim.Network.n net;
    tr_broadcast = (fun m -> Sim.Network.broadcast net ~src:id m);
    tr_send = (fun ~dst m -> Sim.Network.send net ~src:id ~dst m);
    tr_schedule =
      (fun ~delay_us fn ->
        Sim.Engine.schedule (Sim.Network.engine net) ~delay:delay_us fn);
  }
