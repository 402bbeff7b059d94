(* Execution-layer state machines: KV store and constant-product AMM. *)

let test_kv_basic () =
  let kv = App.Kvstore.create () in
  let apply s = App.Kvstore.apply_payload kv s in
  let value v = Some (App.Kvstore.Value v) in
  Alcotest.(check bool) "missing" true (apply "get a" = value None);
  Alcotest.(check bool) "put" true (apply "put a 1" = Some App.Kvstore.Unit);
  Alcotest.(check bool) "get" true (apply "get a" = value (Some "1"));
  ignore (apply "del a");
  Alcotest.(check bool) "deleted" true (apply "get a" = value None);
  Alcotest.(check int) "applied" 5 (App.Kvstore.applied kv)

let test_kv_parse_encode () =
  let kv = App.Kvstore.create () in
  List.iter
    (fun cmd ->
      Alcotest.(check bool) cmd true (App.Kvstore.apply_payload kv cmd <> None))
    [ "put k v"; "get k"; "del k" ];
  Alcotest.(check bool) "junk" true (App.Kvstore.apply_payload kv "explode now" = None);
  Alcotest.(check bool) "empty" true (App.Kvstore.apply_payload kv "" = None)

let test_kv_digest_tracks_history () =
  let a = App.Kvstore.create () and b = App.Kvstore.create () in
  ignore (App.Kvstore.apply_payload a "put x 1");
  ignore (App.Kvstore.apply_payload b "put x 1");
  Alcotest.(check string) "same history same digest" (App.Kvstore.state_digest a)
    (App.Kvstore.state_digest b);
  ignore (App.Kvstore.apply_payload a "del x");
  ignore (App.Kvstore.apply_payload b "put x 1");
  (* same final map contents would not excuse different histories *)
  Alcotest.(check bool) "different history different digest" true
    (App.Kvstore.state_digest a <> App.Kvstore.state_digest b)

let test_kv_junk_folded () =
  let a = App.Kvstore.create () and b = App.Kvstore.create () in
  Alcotest.(check bool) "junk applies as no-op" true
    (App.Kvstore.apply_payload a "garbage!" = None);
  Alcotest.(check bool) "digests still diverge deterministically" true
    (App.Kvstore.state_digest a <> App.Kvstore.state_digest b)

let test_amm_quote_math () =
  let amm = App.Amm.create ~reserve_x:1_000_000 ~reserve_y:1_000_000 in
  (* tiny trade near mid price, fee included: out ≈ in * 0.997 *)
  let out = App.Amm.quote amm App.Amm.X_to_y 1_000 in
  Alcotest.(check bool) "fee applied" true (out >= 990 && out <= 997);
  (* large trade slips substantially *)
  let big = App.Amm.quote amm App.Amm.X_to_y 500_000 in
  Alcotest.(check bool) "slippage" true (big < 500_000 * 997 / 1000 * 9 / 10)

let apply_exn amm swap =
  match App.Amm.apply amm swap with
  | Some out -> out
  | None -> Alcotest.fail "swap unexpectedly rejected"

let test_amm_apply_moves_reserves () =
  let amm = App.Amm.create ~reserve_x:1_000_000 ~reserve_y:1_000_000 in
  let out =
    apply_exn amm { trader = "t"; dir = App.Amm.X_to_y; amount_in = 10_000 }
  in
  Alcotest.(check int) "x grew" 1_010_000 (App.Amm.reserve_x amm);
  Alcotest.(check int) "y shrank" (1_000_000 - out) (App.Amm.reserve_y amm);
  let px, py = App.Amm.position amm "t" in
  Alcotest.(check int) "net x" (-10_000) px;
  Alcotest.(check int) "net y" out py;
  Alcotest.(check int) "swaps" 1 (App.Amm.swaps_applied amm)

let prop_amm_product_nondecreasing =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"amm: fee keeps x*y non-decreasing" ~count:200
       QCheck.(pair (int_range 1 200_000) bool)
       (fun (amount, dir) ->
         let amm = App.Amm.create ~reserve_x:1_000_000 ~reserve_y:2_000_000 in
         let k0 = App.Amm.reserve_x amm * App.Amm.reserve_y amm in
         ignore
           (App.Amm.apply amm
              {
                trader = "p";
                dir = (if dir then App.Amm.X_to_y else App.Amm.Y_to_x);
                amount_in = amount;
              });
         App.Amm.reserve_x amm * App.Amm.reserve_y amm >= k0))

(* The same invariant must survive arbitrary *sequences* of swaps —
   including dust and over-sized amounts whose quotes get rejected —
   checked step by step so a single violating intermediate state
   cannot hide behind a compensating later swap. *)
let prop_amm_product_nondecreasing_sequences =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"amm: x*y non-decreasing across any swap sequence" ~count:100
       QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 1 500_000) bool))
       (fun swaps ->
         let amm = App.Amm.create ~reserve_x:2_000_000 ~reserve_y:1_000_000 in
         List.for_all
           (fun (amount, dir) ->
             let k0 = App.Amm.reserve_x amm * App.Amm.reserve_y amm in
             let before =
               (App.Amm.reserve_x amm, App.Amm.reserve_y amm,
                App.Amm.swaps_applied amm)
             in
             let r =
               App.Amm.apply amm
                 {
                   trader = "q";
                   dir = (if dir then App.Amm.X_to_y else App.Amm.Y_to_x);
                   amount_in = amount;
                 }
             in
             let k1 = App.Amm.reserve_x amm * App.Amm.reserve_y amm in
             match r with
             | Some out -> out > 0 && k1 >= k0
             | None ->
                 (* rejected swaps must be pure no-ops *)
                 before
                 = (App.Amm.reserve_x amm, App.Amm.reserve_y amm,
                    App.Amm.swaps_applied amm))
           swaps))

let test_amm_parse_encode () =
  let s = { App.Amm.trader = "bob"; dir = App.Amm.Y_to_x; amount_in = 42 } in
  Alcotest.(check bool) "roundtrip" true (App.Amm.parse (App.Amm.encode s) = Some s);
  Alcotest.(check bool) "junk" true (App.Amm.parse "swap bob sideways 42" = None);
  Alcotest.(check bool) "non-numeric" true (App.Amm.parse "swap bob x2y many" = None)

let test_amm_sandwich_profitable_in_isolation () =
  (* Sanity of the measurement instrument: executing front-buy, victim
     buy, back-sell in that order yields positive attacker profit. *)
  let amm = App.Amm.create ~reserve_x:10_000_000 ~reserve_y:10_000_000 in
  let front =
    apply_exn amm { trader = "m"; dir = App.Amm.X_to_y; amount_in = 250_000 }
  in
  ignore (App.Amm.apply amm { trader = "v"; dir = App.Amm.X_to_y; amount_in = 500_000 });
  ignore (App.Amm.apply amm { trader = "m"; dir = App.Amm.Y_to_x; amount_in = front });
  let px, py = App.Amm.position amm "m" in
  Alcotest.(check int) "flat in y" 0 py;
  Alcotest.(check bool) "profit in x" true (px > 0)

let test_amm_zero_amount_noop () =
  let amm = App.Amm.create ~reserve_x:1_000 ~reserve_y:1_000 in
  Alcotest.(check bool) "zero swap rejected" true
    (App.Amm.apply amm { trader = "z"; dir = App.Amm.X_to_y; amount_in = 0 }
    = None);
  Alcotest.(check int) "reserves untouched" 1_000 (App.Amm.reserve_x amm)

(* Regression: a dust swap whose quote rounds to zero output used to
   mutate reserves, debit the trader and count as a swap anyway. *)
let test_amm_zero_output_rejected () =
  let amm = App.Amm.create ~reserve_x:1_000_000_000 ~reserve_y:1_000 in
  (* 1 unit of X into a pool holding 1e9 X / 1e3 Y quotes 0 Y out *)
  Alcotest.(check int) "dust quote is 0" 0 (App.Amm.quote amm App.Amm.X_to_y 1);
  Alcotest.(check bool) "dust swap rejected" true
    (App.Amm.apply amm { trader = "d"; dir = App.Amm.X_to_y; amount_in = 1 }
    = None);
  Alcotest.(check int) "x reserve untouched" 1_000_000_000
    (App.Amm.reserve_x amm);
  Alcotest.(check int) "y reserve untouched" 1_000 (App.Amm.reserve_y amm);
  Alcotest.(check (pair int int)) "no position opened" (0, 0)
    (App.Amm.position amm "d");
  Alcotest.(check int) "no swap counted" 0 (App.Amm.swaps_applied amm);
  Alcotest.(check bool) "payload path also rejects" true
    (App.Amm.apply_payload amm "swap d x2y 1" = None)

(* Regression: quotes on large reserves used to overflow the native
   int product (amount_fee * r_out) and return garbage. The widened
   path must agree with the float approximation. *)
let test_amm_overflow_safe () =
  let r = 1_000_000_000_000 in
  let amm = App.Amm.create ~reserve_x:r ~reserve_y:r in
  let amount = 1_000_000_000_000 in
  let out = App.Amm.quote amm App.Amm.X_to_y amount in
  let expected =
    let a = float_of_int amount *. 997.0 in
    a *. float_of_int r /. ((float_of_int r *. 1000.0) +. a)
  in
  Alcotest.(check bool) "large-reserve quote sane" true
    (Float.abs (float_of_int out -. expected) /. expected < 1e-9);
  Alcotest.(check bool) "output below reserve" true (out < r);
  (* executing it keeps the invariant (float to avoid overflowing the
     product in the test itself) *)
  let k0 = float_of_int r *. float_of_int r in
  ignore (App.Amm.apply amm { trader = "w"; dir = App.Amm.X_to_y; amount_in = amount });
  let k1 =
    float_of_int (App.Amm.reserve_x amm) *. float_of_int (App.Amm.reserve_y amm)
  in
  Alcotest.(check bool) "k non-decreasing" true (k1 >= k0);
  (* absurd ranges reject instead of overflowing *)
  let huge = App.Amm.create ~reserve_x:max_int ~reserve_y:max_int in
  Alcotest.(check int) "unrepresentable denominator rejects" 0
    (App.Amm.quote huge App.Amm.X_to_y 1_000_000);
  Alcotest.(check bool) "apply on huge pool is a no-op" true
    (App.Amm.apply huge { trader = "h"; dir = App.Amm.X_to_y; amount_in = 5 }
    = None)

let test_amm_price () =
  let amm = App.Amm.create ~reserve_x:2_000_000 ~reserve_y:1_000_000 in
  Alcotest.(check int) "price x in y" 500_000 (App.Amm.price_x_micro amm);
  (* large reserves: exact via widened intermediates *)
  let big = App.Amm.create ~reserve_x:3_000_000_000_000_000 ~reserve_y:1_500_000_000_000_000 in
  Alcotest.(check int) "large price" 500_000 (App.Amm.price_x_micro big);
  (* a ratio whose micro-scaled value cannot be represented saturates *)
  let skew = App.Amm.create ~reserve_x:1 ~reserve_y:max_int in
  Alcotest.(check int) "saturates" max_int (App.Amm.price_x_micro skew)

let suite =
  [
    Alcotest.test_case "kv basic" `Quick test_kv_basic;
    Alcotest.test_case "kv parse/encode" `Quick test_kv_parse_encode;
    Alcotest.test_case "kv digest history" `Quick test_kv_digest_tracks_history;
    Alcotest.test_case "kv junk folded" `Quick test_kv_junk_folded;
    Alcotest.test_case "amm quote" `Quick test_amm_quote_math;
    Alcotest.test_case "amm apply" `Quick test_amm_apply_moves_reserves;
    prop_amm_product_nondecreasing;
    prop_amm_product_nondecreasing_sequences;
    Alcotest.test_case "amm parse/encode" `Quick test_amm_parse_encode;
    Alcotest.test_case "amm sandwich math" `Quick test_amm_sandwich_profitable_in_isolation;
    Alcotest.test_case "amm zero noop" `Quick test_amm_zero_amount_noop;
    Alcotest.test_case "amm zero-output rejected" `Quick test_amm_zero_output_rejected;
    Alcotest.test_case "amm overflow safe" `Quick test_amm_overflow_safe;
    Alcotest.test_case "amm price" `Quick test_amm_price;
  ]
