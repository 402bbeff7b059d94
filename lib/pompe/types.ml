type cmd = { c_iid : Lyra.Types.iid; c_seq : int; c_proof_count : int }

let cmd_id { c_iid; _ } =
  Printf.sprintf "%d.%d" c_iid.Lyra.Types.proposer c_iid.Lyra.Types.index

let cmd_size { c_proof_count; _ } = 64 + (96 * c_proof_count)

type timestamp_proof = { signer : int; ts : int }

type body =
  | Order_req of { batch : Lyra.Types.batch }
  | Ts_resp of { iid : Lyra.Types.iid; ts : int }
  | Sequenced of {
      iid : Lyra.Types.iid;
      seq : int;
      proofs : timestamp_proof list;
    }
  | Order_fetch of { iid : Lyra.Types.iid }
  | Hs of cmd Hotstuff.Replica.msg

let msg_size = function
  | Order_req { batch } -> 96 + (32 * Array.length batch.Lyra.Types.txs)
  | Ts_resp _ -> 112
  | Sequenced { proofs; _ } -> 64 + (96 * List.length proofs)
  | Order_fetch _ -> 40
  | Hs m -> Hotstuff.Replica.msg_size ~cmd_size m

let msg_cost (c : Sim.Costs.t) body =
  let base =
    match body with
    | Order_req { batch } ->
        (* Hash the payload and sign a timestamp response. *)
        let kb = 1 + (32 * Array.length batch.Lyra.Types.txs / 1024) in
        (c.hash_per_kb * kb) + c.sig_sign
    | Ts_resp _ -> c.sig_verify (* the origin verifies each timestamp *)
    | Sequenced _ -> 4 (* admission only; verified at consensus *)
    | Order_fetch _ -> 4 (* table lookup *)
    | Hs (Hotstuff.Replica.Proposal b) ->
        (* Verify the QC plus 2f+1 timestamp signatures per included
           batch — the O(n)-verifications-per-batch term of §VI-C. *)
        let per_cmd =
          List.fold_left
            (fun acc cmd -> acc + (cmd.c_proof_count * c.sig_verify))
            0 b.Hotstuff.Replica.cmds
        in
        c.combined_verify + per_cmd
    | Hs (Hotstuff.Replica.Vote _) -> c.sig_verify (* leader checks votes *)
    | Hs (Hotstuff.Replica.New_view _) -> c.combined_verify
    | Hs (Hotstuff.Replica.Catchup_req _) -> 4 (* store lookup *)
    | Hs (Hotstuff.Replica.Catchup_resp { blocks }) ->
        (* Catching up costs what receiving each block fresh would. *)
        List.fold_left
          (fun acc (b : cmd Hotstuff.Replica.block) ->
            List.fold_left
              (fun a cm -> a + (cm.c_proof_count * c.sig_verify))
              (acc + c.combined_verify) b.Hotstuff.Replica.cmds)
          0 blocks
  in
  c.msg_overhead + base
