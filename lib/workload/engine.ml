(* Open-loop workload engine.

   The central trick is that a stream modelling a million clients
   carries O(1) state: the superposition of k independent Poisson
   processes at rate r is one Poisson process at rate k·r, so the
   engine never materialises clients — it materialises the aggregate
   arrival process. Time-varying shapes (diurnal curves, flash crowds)
   are sampled by thinning (Lewis & Shedler): candidate arrivals are
   generated at the shape's peak rate and accepted with probability
   λ(t)/λmax, which keeps per-stream state to one RNG and a handful of
   counters no matter how the rate moves.

   The MEV flow seeds arbitrage-searcher agents next to the user
   streams: a searcher observes a pending user swap after a mempool
   delay and races it with a front-run (same direction) plus a
   back-run (reverse direction, sized from a shadow pool that tracks
   committed state). Whether the searcher actually extracts value is
   decided entirely by the protocol's ordering — that is the
   measurement. Extraction is computed after the fact by replaying the
   committed order through a fresh App.Amm ({!mev_report}). *)

type shape =
  | Constant
  | Diurnal of { trough : float; period_us : int; phase_us : int }
  | Flash_crowd of { at_us : int; ramp_us : int; peak : float; decay_us : int }

type mix =
  | Fixed of { size : int }
  | Kv of { keys : int; zipf : float }
  | Amm_swaps of { amount_min : int; amount_max : int }

type stream_spec = {
  name : string;
  clients : int;
  rate_per_client : float;
  shape : shape;
  mix : mix;
}

type searcher_spec = {
  searchers : int;
  observe_delay_us : int;
  back_delay_us : int;
  front_fraction : float;
  min_victim_amount : int;
}

type market = { reserve_x : int; reserve_y : int }

type spec = {
  streams : stream_spec list;
  market : market option;
  searcher : searcher_spec option;
}

let latency_cap = 8192

let default_market = { reserve_x = 50_000_000; reserve_y = 50_000_000 }

let default_searcher =
  {
    searchers = 1;
    observe_delay_us = 3_000;
    back_delay_us = 2_000;
    front_fraction = 0.5;
    min_victim_amount = 10_000;
  }

let spec ?market ?searcher streams =
  List.iter
    (fun s ->
      if s.clients <= 0 then invalid_arg "Engine.spec: clients must be positive";
      if s.rate_per_client <= 0.0 then
        invalid_arg "Engine.spec: rate_per_client must be positive")
    streams;
  { streams; market; searcher }

(* ------------------------------------------------------------------ *)
(* Shapes                                                              *)
(* ------------------------------------------------------------------ *)

let pi = 4.0 *. atan 1.0

(* Rate multiplier at [t] microseconds since the stream started. *)
let shape_factor shape t =
  match shape with
  | Constant -> 1.0
  | Diurnal { trough; period_us; phase_us } ->
      let angle =
        2.0 *. pi *. float_of_int (t + phase_us) /. float_of_int period_us
      in
      trough +. ((1.0 -. trough) *. 0.5 *. (1.0 +. sin angle))
  | Flash_crowd { at_us; ramp_us; peak; decay_us } ->
      if t < at_us then 1.0
      else if t < at_us + ramp_us then
        1.0 +. ((peak -. 1.0) *. float_of_int (t - at_us) /. float_of_int ramp_us)
      else
        1.0
        +. (peak -. 1.0)
           *. exp (-.float_of_int (t - at_us - ramp_us) /. float_of_int decay_us)

(* Envelope for thinning: a rate the shape never exceeds. *)
let shape_peak = function
  | Constant -> 1.0
  | Diurnal { trough; _ } -> Float.max 1.0 trough
  | Flash_crowd { peak; _ } -> Float.max 1.0 peak

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type origin = User of int (* stream index *) | Searcher

type pending = { origin : origin; sent_us : int }

type payload_gen =
  | Gen_fixed of int
  | Gen_kv of Zipf.t
  | Gen_amm of { amount_min : int; amount_max : int }

type stream = {
  s_spec : stream_spec;
  s_rng : Crypto.Rng.t;
  rate_max_per_us : float;  (* envelope rate, arrivals per µs *)
  rate_base_per_us : float;  (* clients × rate_per_client, per µs *)
  gen_payload : payload_gen;
  latency : Metrics.Recorder.t;
  mutable submitted : int;
  mutable committed : int;
}

type t = {
  engine : Sim.Engine.t;
  spec : spec;
  nodes : int;
  submit : node:int -> payload:string -> string;
  streams : stream array;
  pending : (string, pending) Hashtbl.t;
  shadow : App.Amm.t option;  (* searcher belief of the pool, from commits *)
  mutable next_trader : int;
  mutable next_searcher : int;
  mutable searcher_submitted : int;
  mutable searcher_committed : int;
  mutable running : bool;
  mutable generation : int;
  mutable started_at : int;
}

let searcher_name k = "s" ^ string_of_int k

let is_searcher_trader trader =
  String.length trader > 0 && Char.equal trader.[0] 's'

let create engine spec ~nodes ~submit () =
  if nodes <= 0 then invalid_arg "Engine.create: nodes must be positive";
  let mk_stream s =
    let rng = Crypto.Rng.split (Sim.Engine.rng engine) in
    let base = float_of_int s.clients *. s.rate_per_client /. 1_000_000.0 in
    {
      s_spec = s;
      s_rng = rng;
      rate_base_per_us = base;
      rate_max_per_us = base *. shape_peak s.shape;
      gen_payload =
        (match s.mix with
        | Fixed { size } -> Gen_fixed size
        | Kv { keys; zipf } -> Gen_kv (Zipf.create ~n:keys ~s:zipf)
        | Amm_swaps { amount_min; amount_max } ->
            if amount_min <= 0 || amount_max < amount_min then
              invalid_arg "Engine.create: bad Amm_swaps amount range";
            Gen_amm { amount_min; amount_max });
      latency = Metrics.Recorder.create ~cap:latency_cap ();
      submitted = 0;
      committed = 0;
    }
  in
  {
    engine;
    spec;
    nodes;
    submit;
    streams = Array.of_list (List.map mk_stream spec.streams);
    pending = Hashtbl.create 4096;
    shadow =
      Option.map
        (fun { reserve_x; reserve_y } -> App.Amm.create ~reserve_x ~reserve_y)
        spec.market;
    next_trader = 0;
    next_searcher = 0;
    searcher_submitted = 0;
    searcher_committed = 0;
    running = false;
    generation = 0;
    started_at = 0;
  }

(* User arrivals spread over all entry points; searchers always enter
   at node 0 — the colocated-infrastructure model (a real searcher
   peers with the proposer's mempool, not a random replica). *)
let submit_tagged ?node t ~origin ~payload =
  let node =
    match node with
    | Some node -> node
    | None -> Crypto.Rng.int (Sim.Engine.rng t.engine) t.nodes
  in
  let tx_id = t.submit ~node ~payload in
  Hashtbl.replace t.pending tx_id
    { origin; sent_us = Sim.Engine.now t.engine };
  tx_id

(* Searcher reaction to an observed user swap: front-run in the same
   direction sized as a fraction of the victim, then a back-run that
   unwinds the front position at the (believed) post-trade price. Both
   race the victim through the ordinary submission path — a
   fair-ordering protocol makes the race unwinnable, a mempool-ordered
   one does not, and that difference is the whole point. *)
let searcher_react t gen (victim : App.Amm.swap) =
  match (t.spec.searcher, t.shadow) with
  | Some sp, Some shadow when victim.amount_in >= sp.min_victim_amount ->
      let k = t.next_searcher in
      t.next_searcher <- (k + 1) mod Stdlib.max 1 sp.searchers;
      let front_amt =
        int_of_float (float_of_int victim.amount_in *. sp.front_fraction)
      in
      if front_amt > 0 then
        Sim.Engine.schedule t.engine ~delay:(Stdlib.max 1 sp.observe_delay_us)
          (fun () ->
            if t.running && Int.equal gen t.generation then begin
              let est_out = App.Amm.quote shadow victim.dir front_amt in
              let front =
                {
                  App.Amm.trader = searcher_name k;
                  dir = victim.dir;
                  amount_in = front_amt;
                }
              in
              ignore
                (submit_tagged ~node:0 t ~origin:Searcher
                   ~payload:(App.Amm.encode front)
                  : string);
              t.searcher_submitted <- t.searcher_submitted + 1;
              if est_out > 0 then
                Sim.Engine.schedule t.engine
                  ~delay:(Stdlib.max 1 sp.back_delay_us)
                  (fun () ->
                    if t.running && Int.equal gen t.generation then begin
                      let back =
                        {
                          App.Amm.trader = searcher_name k;
                          dir =
                            (match victim.dir with
                            | App.Amm.X_to_y -> App.Amm.Y_to_x
                            | App.Amm.Y_to_x -> App.Amm.X_to_y);
                          amount_in = est_out;
                        }
                      in
                      ignore
                        (submit_tagged ~node:0 t ~origin:Searcher
                           ~payload:(App.Amm.encode back)
                          : string);
                      t.searcher_submitted <- t.searcher_submitted + 1
                    end)
            end)
  | _ -> ()

let submit_one t si gen =
  let st = t.streams.(si) in
  (match st.gen_payload with
  | Gen_fixed size ->
      ignore
        (submit_tagged t ~origin:(User si)
           ~payload:(Crypto.Rng.bytes st.s_rng size)
          : string)
  | Gen_kv z ->
      let k = Printf.sprintf "key%d" (Zipf.sample z st.s_rng) in
      let payload =
        match Crypto.Rng.int st.s_rng 3 with
        | 0 -> Printf.sprintf "get %s" k
        | 1 -> Printf.sprintf "put %s v%d" k (Crypto.Rng.int st.s_rng 1_000_000)
        | _ -> Printf.sprintf "del %s" k
      in
      ignore (submit_tagged t ~origin:(User si) ~payload : string)
  | Gen_amm { amount_min; amount_max } ->
      let amount_in =
        amount_min + Crypto.Rng.int st.s_rng (amount_max - amount_min + 1)
      in
      let trader = "u" ^ string_of_int t.next_trader in
      t.next_trader <- t.next_trader + 1;
      let swap = { App.Amm.trader; dir = App.Amm.X_to_y; amount_in } in
      ignore
        (submit_tagged t ~origin:(User si) ~payload:(App.Amm.encode swap)
          : string);
      searcher_react t gen swap);
  st.submitted <- st.submitted + 1

(* Thinning loop: candidates at the envelope rate, accepted with
   probability λ(now)/λmax. Timers cannot be revoked once scheduled, so
   each chain is tagged with the generation it belongs to: without the
   tag, a stop→start cycle before the pending timer fires would leave
   two live chains (the stale timer finds [running = true] again) and
   double the stream's rate. *)
let rec schedule_candidate t si gen =
  let st = t.streams.(si) in
  let gap =
    Crypto.Rng.exponential st.s_rng ~mean:(1.0 /. st.rate_max_per_us)
  in
  Sim.Engine.schedule t.engine
    ~delay:(Stdlib.max 1 (int_of_float gap))
    (fun () -> candidate t si gen)

and candidate t si gen =
  if t.running && Int.equal gen t.generation then begin
    let st = t.streams.(si) in
    let elapsed = Sim.Engine.now t.engine - t.started_at in
    let lam = st.rate_base_per_us *. shape_factor st.s_spec.shape elapsed in
    if Crypto.Rng.float st.s_rng *. st.rate_max_per_us <= lam then
      submit_one t si gen;
    schedule_candidate t si gen
  end

let start t =
  if not t.running then begin
    t.running <- true;
    t.generation <- t.generation + 1;
    t.started_at <- Sim.Engine.now t.engine;
    Array.iteri (fun si _ -> schedule_candidate t si t.generation) t.streams
  end

let stop t = t.running <- false

let on_commit t ~tx_id ~payload ~now_us =
  match Hashtbl.find_opt t.pending tx_id with
  | None -> ()
  | Some { origin; sent_us } ->
      Hashtbl.remove t.pending tx_id;
      (match origin with
      | User si ->
          let st = t.streams.(si) in
          st.committed <- st.committed + 1;
          Metrics.Recorder.record st.latency (float_of_int (now_us - sent_us))
      | Searcher -> t.searcher_committed <- t.searcher_committed + 1);
      (* keep the searchers' shadow pool in sync with committed state;
         first observation only (the pending entry is gone after). *)
      match t.shadow with
      | Some shadow -> ignore (App.Amm.apply_payload shadow payload : int option)
      | None -> ()

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type stream_summary = {
  s_name : string;
  s_clients : int;
  s_submitted : int;
  s_committed : int;
  s_lat_mean_us : float;
  s_lat_p50_us : float;
  s_lat_p95_us : float;
  s_lat_p99_us : float;
  s_lat_max_us : float;
  s_streaming : bool;
}

let summaries t =
  Array.to_list
    (Array.map
       (fun st ->
         let mean, p50, p95, p99, mx = Metrics.Recorder.summary st.latency in
         {
           s_name = st.s_spec.name;
           s_clients = st.s_spec.clients;
           s_submitted = st.submitted;
           s_committed = st.committed;
           s_lat_mean_us = mean;
           s_lat_p50_us = p50;
           s_lat_p95_us = p95;
           s_lat_p99_us = p99;
           s_lat_max_us = mx;
           s_streaming = Metrics.Recorder.is_streaming st.latency;
         })
       t.streams)

let stream_recorder t i = t.streams.(i).latency

let total_submitted t =
  Array.fold_left (fun acc st -> acc + st.submitted) t.searcher_submitted
    t.streams

let total_committed t =
  Array.fold_left (fun acc st -> acc + st.committed) t.searcher_committed
    t.streams

let searcher_submitted t = t.searcher_submitted

let searcher_committed t = t.searcher_committed

let pending_count t = Hashtbl.length t.pending

type mev = {
  user_swaps : int;
  searcher_swaps : int;
  extracted_value_y : float;
  victim_slippage_y : int;
  final_price_x_micro : int;
}

(* Replay the committed order through a fresh pool twice: once as
   committed, once with searcher transactions deleted. The searchers'
   extraction is their net position marked at the final pool price; the
   victims' loss is how much less each user swap paid out than it would
   have in the searcher-free ordering. Both are pure functions of the
   committed sequence, so the report measures the protocol's ordering
   and nothing else. *)
let mev_report t ~committed =
  match t.spec.market with
  | None -> None
  | Some { reserve_x; reserve_y } ->
      let full = App.Amm.create ~reserve_x ~reserve_y in
      let user_outs = ref [] in
      let user_swaps = ref 0 and searcher_swaps = ref 0 in
      List.iter
        (fun payload ->
          match App.Amm.parse payload with
          | None -> ()
          | Some sw ->
              let out =
                match App.Amm.apply full sw with Some o -> o | None -> 0
              in
              if is_searcher_trader sw.trader then incr searcher_swaps
              else begin
                incr user_swaps;
                user_outs := out :: !user_outs
              end)
        committed;
      let baseline = App.Amm.create ~reserve_x ~reserve_y in
      let actual = Array.of_list (List.rev !user_outs) in
      let slip = ref 0 and i = ref 0 in
      List.iter
        (fun payload ->
          match App.Amm.parse payload with
          | Some sw when not (is_searcher_trader sw.trader) ->
              let b =
                match App.Amm.apply baseline sw with Some o -> o | None -> 0
              in
              slip := !slip + Stdlib.max 0 (b - actual.(!i));
              incr i
          | _ -> ())
        committed;
      let price =
        float_of_int (App.Amm.reserve_y full)
        /. float_of_int (App.Amm.reserve_x full)
      in
      let extracted = ref 0.0 in
      let n_searchers =
        match t.spec.searcher with Some s -> s.searchers | None -> 0
      in
      for k = 0 to n_searchers - 1 do
        let px, py = App.Amm.position full (searcher_name k) in
        extracted := !extracted +. float_of_int py +. (float_of_int px *. price)
      done;
      Some
        {
          user_swaps = !user_swaps;
          searcher_swaps = !searcher_swaps;
          extracted_value_y = !extracted;
          victim_slippage_y = !slip;
          final_price_x_micro = App.Amm.price_x_micro full;
        }
