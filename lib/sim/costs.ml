type t = {
  msg_overhead : int;
  sig_sign : int;
  sig_verify : int;
  share_sign : int;
  share_verify : int;
  share_combine : int;
  combined_verify : int;
  hash_per_kb : int;
  vss_encrypt_base : int;
  vss_share_per_node : int;
  vss_partial_decrypt : int;
  vss_combine : int;
  tx_execute : int;
  tx_validate : int;
}

let default =
  {
    msg_overhead = 4;
    sig_sign = 25;
    sig_verify = 65;
    share_sign = 30;
    share_verify = 70;
    share_combine = 45;
    combined_verify = 110;
    hash_per_kb = 3;
    vss_encrypt_base = 80;
    vss_share_per_node = 2;
    vss_partial_decrypt = 30;
    vss_combine = 120;
    tx_execute = 1;
    tx_validate = 1;
  }

