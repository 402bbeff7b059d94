(** Constant-product automated market maker (x·y = k), the DeFi venue
    where transaction reordering turns into money.

    This is the measurement instrument for the paper's motivation
    (§I, §V-E): a sandwich attacker who can order its buy before and
    its sell after a victim's buy extracts value from the victim's
    price impact; a front-runner who sees a pending buy can ride the
    price up. Under Lyra the attacker never sees the payload before
    ordering is fixed, so the measured extraction collapses to zero.

    Commands are encoded in payload strings:
    ["swap <trader> x2y <amount>"] (sell asset X for Y) and
    ["swap <trader> y2x <amount>"]. Amounts are integer units. *)

type t

(** [create ~reserve_x ~reserve_y] opens the pool. *)
val create : reserve_x:int -> reserve_y:int -> t

type direction = X_to_y | Y_to_x

type swap = { trader : string; dir : direction; amount_in : int }

val parse : string -> swap option

val encode : swap -> string

(** [quote t dir amount_in] is the output the pool would give now
    (after the 0.3% fee), without executing. A quote of 0 means the
    swap would be rejected: non-positive input, dust whose output
    rounds to nothing, or reserves/amounts past the representable
    range (real AMMs revert in the same situations — Uniswap v2 at its
    uint112 balance bound). Quote arithmetic is exact for all inputs:
    intermediates are widened through 128-bit limbs when the native
    product would overflow. *)
val quote : t -> direction -> int -> int

(** [apply t swap] executes a swap and returns the amount paid out.
    [None] — the swap is rejected as a no-op (zero-output quote, see
    {!quote}): reserves, positions and {!swaps_applied} are untouched,
    matching revert semantics. *)
val apply : t -> swap -> int option

(** [apply_payload t s] parses and applies; [None] if not a swap or
    if the swap was rejected. *)
val apply_payload : t -> string -> int option

val reserve_x : t -> int

val reserve_y : t -> int

(** Mid price of X in Y, scaled by 1e6. Exact for large reserves
    (widened intermediates); saturates at [max_int] when the scaled
    ratio itself cannot be represented. *)
val price_x_micro : t -> int

(** Net position (received − spent) of a trader per asset, for
    computing attacker profit. *)
val position : t -> string -> int * int

val swaps_applied : t -> int (* lint: allow S005 swap counter probe for test_apps *)
