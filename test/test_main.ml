(* Aggregated test entry point: `dune runtest` runs every suite. *)

let () =
  Alcotest.run "lyra-reproduction"
    [
      ("rng", Test_rng.suite);
      ("field", Test_field.suite);
      ("hashes", Test_hashes.suite);
      ("signatures", Test_signatures.suite);
      ("secret-sharing", Test_secret_sharing.suite);
      ("merkle", Test_merkle.suite);
      ("sim", Test_sim.suite);
      ("phases", Test_phases.suite);
      ("dbft", Test_dbft.suite);
      ("lyra-units", Test_lyra_units.suite);
      ("predictor", Test_predictor.suite);
      ("vvb-instance", Test_vvb.suite);
      ("commit-model", Test_commit_model.suite);
      ("lyra-cluster", Test_lyra_cluster.suite);
      ("lyra-recovery", Test_recovery.suite);
      ("hotstuff", Test_hotstuff.suite);
      ("pompe", Test_pompe.suite);
      ("dagorder", Test_dagorder.suite);
      ("fairness", Test_fairness.suite);
      ("protocol-runtime", Test_protocol.suite);
      ("faults", Test_faults.suite);
      ("adversary", Test_adversary.suite);
      ("explore", Test_explore.suite);
      ("apps", Test_apps.suite);
      ("metrics-workload", Test_metrics_workload.suite);
      ("workload-engine", Test_workload_engine.suite);
      ("attacks", Test_attacks.suite);
      ("lint", Test_lint.suite);
    ]
