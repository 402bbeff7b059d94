(* The protocol-generic SMR surface. Everything the harness, the bench
   driver and the attack framework need from a replica is expressed
   here once; Lyra, Pompē and plain HotStuff plug in via adapters. *)

type committed = {
  key : string;
  txs : Lyra.Types.tx array;
  seq : int;
  output_at : int;
}

type stats = {
  accepted : int;
  rejected : int;
  decide_rounds : float array;
  mempool : int;
  committed_seq : int;
  late_accepts : int;
  phases : (string * float array) list;
}

(* Characters of [v] printed as %d: the digits, plus a sign. *)
let dec_width v =
  (* Counts on the non-positive side, where min_int has a magnitude. *)
  let rec go v w = if v > -10 then w else go (v / 10) (w + 1) in
  if v < 0 then go v 2 else go (-v) 1

(* Write [v] as %d into [b], ending just before [stop]. *)
let write_dec b ~stop v =
  let rec go v pos =
    (* v <= 0, so [v mod 10] is in -9..0. *)
    Bytes.set b pos (Char.chr (48 - (v mod 10)));
    if v <= -10 then go (v / 10) (pos - 1)
  in
  go (if v < 0 then v else -v) (stop - 1);
  if v < 0 then Bytes.set b (stop - dec_width v) '-'

(* Canonical log key of a batch: mirrors Lyra.Types.pp_iid so logs are
   comparable across protocols with String.equal. Byte-for-byte
   [Printf.sprintf "%d/%d" proposer index], written without a format
   interpreter: the harness formats one per batch per run. *)
let key_of_iid (iid : Lyra.Types.iid) =
  let p = iid.Lyra.Types.proposer and i = iid.Lyra.Types.index in
  let wp = dec_width p in
  let len = wp + 1 + dec_width i in
  let b = Bytes.create len in
  write_dec b ~stop:wp p;
  Bytes.set b wp '/';
  write_dec b ~stop:len i;
  Bytes.unsafe_to_string b

type key_table = string Lyra.Types.Iid_tbl.t

(* The smallest table: it grows with the run, and set-up allocates no
   more than it must. *)
let key_table () = Lyra.Types.Iid_tbl.create 16

(* Every reader of one table gets the same string for an iid, so the
   key is formatted once per run however many nodes output the batch. *)
let cached_key tbl iid =
  match Lyra.Types.Iid_tbl.find_opt tbl iid with
  | Some k -> k
  | None ->
      let k = key_of_iid iid in
      Lyra.Types.Iid_tbl.replace tbl iid k;
      k

module type NODE = sig
  val name : string

  (* Warm-up the generic runner applies when the caller does not
     override it (Lyra needs 1.5 s of distance measurement; the
     leader-based baselines only need their pipeline to fill). *)
  val default_warmup_us : int

  type net

  type t

  val make_net :
    Sim.Engine.t ->
    n:int ->
    jitter:float ->
    ?ns_per_byte:int ->
    ?faults:Sim.Faults.plan ->
    ?adversary:Sim.Adversary.t ->
    ?perturb:Sim.Perturb.t ->
    ?trace:Sim.Network.trace ->
    ?dissemination:Sim.Network.dissemination ->
    unit ->
    net

  val tx_size : net -> int

  val net_messages : net -> int

  val net_bytes : net -> int

  val net_dropped : net -> int

  val net_dup : net -> int

  val net_cpu : net -> int -> Sim.Cpu.t

  val net_nic : net -> int -> Sim.Cpu.t

  val create :
    net ->
    id:int ->
    ?on_observe:(Lyra.Types.batch -> unit) ->
    on_output:(committed -> unit) ->
    unit ->
    t

  val start : t -> unit

  val submit : t -> payload:string -> string

  val honest : t -> bool

  val output_log : t -> committed list

  (* Per-output (seq, low, high) admissibility bounds for protocols
     whose decided sequence numbers carry a validity guarantee (Lyra's
     BOC-Validity); [] where seqs are plain heights. *)
  val seq_bounds : t -> (int * int * int) list

  val stats : t -> stats
end
