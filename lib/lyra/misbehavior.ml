type t =
  | Silent
  | Flood of { batches_per_sec : int }
  | Future_seq of { offset_us : int }
  | Low_status
  | Equivocate
  | Stale_votes of { delay_us : int }

let equal a b =
  match (a, b) with
  | Silent, Silent | Low_status, Low_status | Equivocate, Equivocate -> true
  | Flood { batches_per_sec = x }, Flood { batches_per_sec = y } -> Int.equal x y
  | Future_seq { offset_us = x }, Future_seq { offset_us = y } -> Int.equal x y
  | Stale_votes { delay_us = x }, Stale_votes { delay_us = y } -> Int.equal x y
  | _ -> false
