(* FIPS 180-4 SHA-256 over native ints masked to 32 bits (the host int is
   63-bit, so 32-bit words never overflow between masks). *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask = 0xFFFFFFFF

(* Words 0–7 of [st] are the chaining state, words 8–23 the message
   schedule as a 16-word ring: round i ≥ 16 overwrites word i − 16,
   the last one it needs. Full input blocks are read in place; [buf]
   holds only a partial block and the padding. *)
type ctx = {
  st : int array;
  buf : Bytes.t;
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
}

let init () =
  let st = Array.make 24 0 in
  st.(0) <- 0x6a09e667;
  st.(1) <- 0xbb67ae85;
  st.(2) <- 0x3c6ef372;
  st.(3) <- 0xa54ff53a;
  st.(4) <- 0x510e527f;
  st.(5) <- 0x9b05688c;
  st.(6) <- 0x1f83d9ab;
  st.(7) <- 0x5be0cd19;
  { st; buf = Bytes.create 64; buf_len = 0; total = 0 }

(* Σ and σ functions of a 32-bit word. Rotating x right by n is the low
   32 bits of (x lsr n) lor (x lsl (32 − n)), so one mask after the
   xors stands for a mask per rotation. *)
let[@inline] big_sigma0 x =
  ((x lsr 2) lor (x lsl 30)) lxor ((x lsr 13) lor (x lsl 19))
  lxor ((x lsr 22) lor (x lsl 10))
  land mask

let[@inline] big_sigma1 x =
  ((x lsr 6) lor (x lsl 26)) lxor ((x lsr 11) lor (x lsl 21))
  lxor ((x lsr 25) lor (x lsl 7))
  land mask

let[@inline] small_sigma0 x =
  ((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14)) lxor (x lsr 3)
  land mask

let[@inline] small_sigma1 x =
  ((x lsr 17) lor (x lsl 15)) lxor ((x lsr 19) lor (x lsl 13)) lxor (x lsr 10)
  land mask

(* Compresses the 64-byte block of [block] at [off]; [block] is only
   read, so it may be an input string seen as bytes. Sums are masked
   only where a word is stored or rotated: below 2^36 they cannot
   overflow the 63-bit int. Ring and round-constant indices are in
   range by construction (8 + (j land 15) < 24, i < 64), so they skip
   the bounds check. *)
let compress st block off =
  let a = ref st.(0)
  and b = ref st.(1)
  and c = ref st.(2)
  and d = ref st.(3)
  and e = ref st.(4)
  and f = ref st.(5)
  and g = ref st.(6)
  and hh = ref st.(7) in
  for i = 0 to 63 do
    let w =
      if i < 16 then
        Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask
      else
        (Array.unsafe_get st (8 + (i land 15))
        + small_sigma0 (Array.unsafe_get st (8 + ((i - 15) land 15)))
        + Array.unsafe_get st (8 + ((i - 7) land 15))
        + small_sigma1 (Array.unsafe_get st (8 + ((i - 2) land 15))))
        land mask
    in
    Array.unsafe_set st (8 + (i land 15)) w;
    let t1 =
      !hh + big_sigma1 !e + (!e land !f lxor (lnot !e land !g))
      + Array.unsafe_get k i + w
    in
    let t2 = big_sigma0 !a + (!a land !b lxor (!a land !c) lxor (!b land !c)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  st.(0) <- (st.(0) + !a) land mask;
  st.(1) <- (st.(1) + !b) land mask;
  st.(2) <- (st.(2) + !c) land mask;
  st.(3) <- (st.(3) + !d) land mask;
  st.(4) <- (st.(4) + !e) land mask;
  st.(5) <- (st.(5) + !f) land mask;
  st.(6) <- (st.(6) + !g) land mask;
  st.(7) <- (st.(7) + !hh) land mask

let update ctx s =
  let len = String.length s in
  let src = Bytes.unsafe_of_string s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit src 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx.st ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx.st src !pos;
    pos := !pos + 64
  done;
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit src !pos ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

(* Padding, written into [buf]: 0x80, zeros, then the 64-bit
   big-endian bit length, which takes a second block when fewer than
   nine bytes of the last one are free. *)
let final ctx =
  let buf = ctx.buf in
  let pos = ctx.buf_len + 1 in
  Bytes.set buf ctx.buf_len '\x80';
  if pos > 56 then begin
    Bytes.fill buf pos (64 - pos) '\x00';
    compress ctx.st buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf pos (56 - pos) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx.st buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.st.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  final ctx

let rec absorb ctx = function
  | [] -> ()
  | s :: rest ->
      update ctx s;
      absorb ctx rest

let digest_list parts =
  let ctx = init () in
  absorb ctx parts;
  final ctx

let to_hex raw =
  let b = Buffer.create (2 * String.length raw) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents b

let hkdf_expand ~key ~info n =
  let out = Bytes.create n in
  let rec fill ctr pos =
    if pos < n then begin
      let block = digest_list [ key; info; string_of_int ctr ] in
      Bytes.blit_string block 0 out pos (min 32 (n - pos));
      fill (ctr + 1) (pos + 32)
    end
  in
  fill 0 0;
  Bytes.unsafe_to_string out
