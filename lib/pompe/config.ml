type t = {
  n : int;
  delta_us : int;
  batch_size : int;
  batch_timeout_us : int;
  max_inflight : int;
  block_capacity : int;
  exec_window_us : int;
  tx_size : int;
  clock_offset_max_us : int;
}

let default ~n =
  {
    n;
    delta_us = 160_000;
    batch_size = 800;
    batch_timeout_us = 50_000;
    max_inflight = 16;
    block_capacity = 8;
    exec_window_us = 500_000;
    tx_size = 32;
    clock_offset_max_us = 2_000;
  }

let fetch_base_us = 200_000

let order_retry_us = 1_000_000

let f t = Dbft.Quorums.max_faulty t.n

let supermajority t = (2 * f t) + 1
