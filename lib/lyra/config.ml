type t = {
  n : int;
  lambda_us : int;
  delta_us : int;
  batch_size : int;
  batch_timeout_us : int;
  max_inflight : int;
  status_interval_us : int;
  warmup_proposals : int;
  real_crypto : bool;
  vss_scheme : Crypto.Vss.scheme;
  tx_size : int;
  clock_offset_max_us : int;
  retransmit_after_us : int;
  retransmit_interval_us : int;
  skip_window_check : bool;
}

let default ~n =
  {
    n;
    lambda_us = 5_000;
    delta_us = 160_000;
    batch_size = 800;
    batch_timeout_us = 50_000;
    max_inflight = 8;
    status_interval_us = 25_000;
    warmup_proposals = 4;
    real_crypto = false;
    vss_scheme = Crypto.Vss.Hashed;
    tx_size = 32;
    clock_offset_max_us = 2_000;
    retransmit_after_us = 2_000_000;
    retransmit_interval_us = 500_000;
    skip_window_check = false;
  }

let warmup_spacing_us = 120_000

let ewma_alpha = 0.3

let future_bound_us = 1_000_000

let sync_patience_us = 1_000_000

let sync_batch = 64

let isolation_gap_us = 250_000

let l_us t = 3 * t.delta_us

let f t = Dbft.Quorums.max_faulty t.n

let quorum t = Dbft.Quorums.quorum t.n

let supermajority t = Dbft.Quorums.supermajority t.n
