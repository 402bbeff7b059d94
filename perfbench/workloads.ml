(* The three benchmark workloads. Each is one Harness.Scenario.run,
   deterministic in the seed; README.md says why each was chosen. *)

type t = {
  name : string;
  protocol : string;
  n : int;
  load : Harness.Scenario.load;
  warmup_us : int;
  duration_us : int;
  deadline_us : int;
      (** a transaction submitted later than this before the window
          closes is not counted as failed if it never commits *)
  knobs : (string * string) list;  (** for the run manifest *)
  adapter : seed:int64 -> (module Protocol.NODE);
  twin : (seed:int64 -> (module Protocol.NODE)) option;
      (** cost-model twin of a real-crypto adapter *)
  faults : Sim.Faults.plan;
  workload : Workload.Engine.spec option;
  profile_bucket_us : int;
}

let load_name = function
  | Harness.Scenario.Closed c -> Printf.sprintf "closed %d clients/node" c
  | Harness.Scenario.Open_rate r -> Printf.sprintf "open %g tx/s/node" r

let lyra_crypto_n16 =
  let tweak c = { c with Lyra.Config.warmup_proposals = 1 } in
  {
    name = "lyra-crypto-n16";
    protocol = "lyra";
    n = 16;
    load = Harness.Scenario.Closed 8;
    warmup_us = 1_500_000;
    duration_us = 3_000_000;
    deadline_us = 1_000_000;
    knobs = [ ("warmup_proposals", "1"); ("real_crypto", "true"); ("vss_scheme", "hashed") ];
    adapter =
      (fun ~seed ->
        Crypto_lyra.make ~key_seed:(Int64.add seed 0x6b657973L) ~tweak ());
    twin = Some (fun ~seed:_ -> Protocol.Lyra_adapter.make ~tweak ());
    faults = Sim.Faults.none;
    workload = None;
    profile_bucket_us = 50_000;
  }

(* A Zipf KV flash crowd, AMM user swaps raced by searchers, one lossy
   and duplicating window and one crash with recovery, all inside the
   measurement window. *)
let lyra_mev_n16 =
  let warmup_us = 1_500_000 and duration_us = 1_500_000 in
  let at frac = warmup_us + int_of_float (frac *. float_of_int duration_us) in
  let faults =
    Sim.Faults.none
    |> Sim.Faults.loss ~dup_p:0.01 ~from_us:(at 0.05) ~until_us:(at 0.35)
         ~drop_p:0.01
    |> Sim.Faults.crash ~node:5 ~at_us:(at 0.1) ~recover_us:(at 0.25)
  in
  let spec =
    Workload.Engine.spec
      ~market:{ Workload.Engine.reserve_x = 50_000_000; reserve_y = 50_000_000 }
      ~searcher:
        {
          Workload.Engine.searchers = 3;
          observe_delay_us = 3_000;
          back_delay_us = 2_000;
          front_fraction = 0.5;
          min_victim_amount = 10_000;
        }
      [
        {
          Workload.Engine.name = "kv-flash";
          clients = 200_000;
          rate_per_client = 0.003;
          shape =
            Workload.Engine.Flash_crowd
              {
                at_us = 700_000 + (duration_us / 4);
                ramp_us = 200_000;
                peak = 4.0;
                decay_us = 300_000;
              };
          mix = Workload.Engine.Kv { keys = 1_000; zipf = 1.1 };
        };
        {
          Workload.Engine.name = "amm-users";
          clients = 50_000;
          rate_per_client = 0.008;
          shape = Workload.Engine.Constant;
          mix = Workload.Engine.Amm_swaps { amount_min = 20_000; amount_max = 80_000 };
        };
      ]
  in
  let tweak c =
    {
      c with
      Lyra.Config.batch_timeout_us = 100_000;
      retransmit_after_us = 300_000;
      retransmit_interval_us = 100_000;
    }
  in
  {
    name = "lyra-mev-n16";
    protocol = "lyra";
    n = 16;
    load = Harness.Scenario.Closed 0;
    warmup_us;
    duration_us;
    deadline_us = 1_000_000;
    knobs =
      [
        ("batch_timeout_us", "100000");
        ("retransmit_after_us", "300000");
        ("workload", "kv-flash 600 tx/s zipf 1.1 + amm-users 400 tx/s + 3 searchers");
        ("faults", "loss 1%/dup 1% over 5-35% of window; node 5 down 10-25%");
        ("real_crypto", "false");
      ];
    adapter = (fun ~seed:_ -> Protocol.Lyra_adapter.make ~tweak ());
    twin = None;
    faults;
    workload = Some spec;
    profile_bucket_us = 50_000;
  }

let pompe_n100 =
  {
    name = "pompe-n100";
    protocol = "pompe";
    n = 100;
    load = Harness.Scenario.Closed 4;
    warmup_us = 25_000_000;
    duration_us = 60_000_000;
    deadline_us = 30_000_000;
    knobs = [ ("real_crypto", "false") ];
    adapter = (fun ~seed:_ -> Protocol.Pompe_adapter.make ());
    twin = None;
    faults = Sim.Faults.none;
    workload = None;
    profile_bucket_us = 500_000;
  }

let all = [ lyra_crypto_n16; lyra_mev_n16; pompe_n100 ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let names = List.map (fun w -> w.name) all
