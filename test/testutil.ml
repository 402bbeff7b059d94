(* Shared test fixtures: protocol-registry lookup, the generic
   harness-scenario runner, and the node-level Lyra cluster used by the
   integration suites. Keeping these in one place means explorer,
   fault and protocol tests all drive the exact same setup. *)

let get_protocol name =
  match Protocol.Registry.get name with
  | Some p -> p
  | None -> Alcotest.failf "protocol %s not registered" name

(* The standard harness invocation: n=4, two closed-loop clients per
   node. Goldens in test_protocol.ml pin results of exactly this call,
   so its defaults must not drift. *)
let run_scenario ?seed ?(n = 4) ?(clients = 2) ?faults ?adversary ?perturb
    ~duration_us protocol =
  Harness.Scenario.run ?seed ?faults ?adversary ?perturb (get_protocol protocol)
    ~n
    ~load:(Harness.Scenario.Closed clients)
    ~duration_us ()

(* ------------------------------------------------------------------ *)
(* Node-level Lyra cluster (no harness): direct access to the engine   *)
(* and every node, for tests that poke at protocol internals.          *)
(* ------------------------------------------------------------------ *)

type cluster = {
  engine : Sim.Engine.t;
  net : Lyra.Types.msg Sim.Network.t;
  nodes : Lyra.Node.t array;
  cfg : Lyra.Config.t;
}

let make_cluster ?(seed = 11L) ?(tweak = fun c -> c) ?(byz = fun _ -> None)
    ?(real_crypto = false) ?adversary ?faults ?(on_output = fun _ _ -> ()) n =
  let engine = Sim.Engine.create ~seed () in
  let base =
    {
      (Lyra.Config.default ~n) with
      batch_size = 5;
      batch_timeout_us = 20_000;
      real_crypto;
    }
  in
  let cfg = tweak base in
  let latency =
    Sim.Latency.regional ~jitter:0.01 (Sim.Regions.paper_placement n)
  in
  let net =
    Sim.Network.create engine ~n ~latency ?adversary ?faults
      ~cost:(fun ~dst:_ m -> Lyra.Types.msg_cost Sim.Costs.default m)
      ~size:Lyra.Types.msg_size ()
  in
  let rng = Sim.Engine.rng engine in
  let keypairs, dir =
    if real_crypto then
      let kps, dir = Crypto.Keys.setup rng n in
      (Some kps, Some dir)
    else (None, None)
  in
  let nodes =
    Array.init n (fun id ->
        Lyra.Node.create cfg net ~id
          ?keys:(Option.map (fun k -> k.(id)) keypairs)
          ?dir
          ~clock_offset_us:(Crypto.Rng.int rng 2_000)
          ?misbehavior:(byz id)
          ~on_output:(on_output id) ())
  in
  Array.iter Lyra.Node.start nodes;
  { engine; net; nodes; cfg }

let submit_round c ~per_node =
  Array.iter
    (fun node ->
      for _ = 1 to per_node do
        ignore (Lyra.Node.submit node ~payload:(String.make 32 'x') : string)
      done)
    c.nodes

let logs c =
  Array.map
    (fun node ->
      List.map
        (fun (o : Lyra.Node.output) -> o.batch.iid)
        (Lyra.Node.output_log node))
    c.nodes

(* The sender set over ids 0..n−1 holding [ids]. *)
let senders n ids =
  let set = Dbft.Senders.create n in
  List.iter (fun i -> ignore (Dbft.Senders.add set i : bool)) ids;
  set

let is_prefix la lb =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (la, lb)

let check_prefix_safety ls =
  Array.iteri
    (fun i la ->
      Array.iteri
        (fun j lb ->
          Alcotest.(check bool)
            (Printf.sprintf "prefix %d/%d" i j)
            true
            (is_prefix la lb || is_prefix lb la))
        ls)
    ls
