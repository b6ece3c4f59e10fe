(* AES-128 (FIPS-197) in the 32-bit T-table formulation of the Rijndael
   proposal, the form Gladman's library uses. The S-box is derived from
   first principles (multiplicative inverse in GF(2^8) followed by the
   affine map) rather than transcribed, to avoid transcription errors, and
   the round tables are derived from it; correctness is pinned by the
   FIPS-197 and NIST test vectors and by a differential property against
   a byte-wise reference in the test suite. *)

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

(* Multiplication in GF(2^8) with the AES polynomial. *)
let gmul a b =
  let rec loop a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      loop (xtime a) (b lsr 1) acc
  in
  loop a b 0

let sbox = Array.make 256 0

let () =
  (* Build the multiplicative inverse table by brute force (256^2 ops, once). *)
  let inverse = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inverse.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  for i = 0 to 255 do
    let x = inverse.(i) in
    sbox.(i) <- x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63
  done

(* Round tables. A state column is one 32-bit word, row 0 in the top byte.
   [te0.(x)] is MixColumns applied to a column whose only non-zero byte is
   S(x) in row 0 — the word (2·S(x), S(x), S(x), 3·S(x)) — and [te1..te3]
   are its rotations right by 8, 16 and 24 bits, the images of S(x) in rows
   1..3. A full round of one output column is then four lookups XORed with
   the round key word: SubBytes and MixColumns live in the tables, and
   ShiftRows is which input column feeds which table. *)
let te0 = Array.make 256 0
let te1 = Array.make 256 0
let te2 = Array.make 256 0
let te3 = Array.make 256 0

let () =
  let ror w n = ((w lsr n) lor (w lsl (32 - n))) land 0xffffffff in
  for x = 0 to 255 do
    let s = sbox.(x) in
    let w = (xtime s lsl 24) lor (s lsl 16) lor (s lsl 8) lor (xtime s lxor s) in
    te0.(x) <- w;
    te1.(x) <- ror w 8;
    te2.(x) <- ror w 16;
    te3.(x) <- ror w 24
  done

type key = int array
(* 44 32-bit words of the expanded key schedule, stored big-endian wordwise:
   word = b0<<24 | b1<<16 | b2<<8 | b3 where b0 is the first byte. *)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let expand raw =
  if String.length raw <> 16 then invalid_arg "Aes.expand: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <-
      (Char.code raw.[4 * i] lsl 24)
      lor (Char.code raw.[(4 * i) + 1] lsl 16)
      lor (Char.code raw.[(4 * i) + 2] lsl 8)
      lor Char.code raw.[(4 * i) + 3]
  done;
  let sub_word x =
    (sbox.((x lsr 24) land 0xff) lsl 24)
    lor (sbox.((x lsr 16) land 0xff) lsl 16)
    lor (sbox.((x lsr 8) land 0xff) lsl 8)
    lor sbox.(x land 0xff)
  in
  let rot_word x = ((x lsl 8) lor (x lsr 24)) land 0xffffffff in
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then sub_word (rot_word temp) lxor (rcon.((i / 4) - 1) lsl 24)
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

(* Table lookup. The mask keeps the index in 0..255 whatever the caller
   passes, which is what makes skipping the bounds check safe. *)
let[@inline] lookup (t : int array) x = Array.unsafe_get t (x land 0xff)

let get_word src pos =
  (Char.code (Bytes.get src pos) lsl 24)
  lor (Char.code (Bytes.get src (pos + 1)) lsl 16)
  lor (Char.code (Bytes.get src (pos + 2)) lsl 8)
  lor Char.code (Bytes.get src (pos + 3))

let set_word dst pos w =
  Bytes.set dst pos (Char.unsafe_chr ((w lsr 24) land 0xff));
  Bytes.set dst (pos + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
  Bytes.set dst (pos + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
  Bytes.set dst (pos + 3) (Char.unsafe_chr (w land 0xff))

(* AES begins by adding round key 0 to the input block, so XORing [w] into
   that round key encrypts [b xor w] for every [b]: a whitening folded into
   the schedule, computed once per key rather than once per block. *)
let prewhiten (k : key) w =
  if Bytes.length w <> 16 then invalid_arg "Aes.prewhiten: whitening must be 16 bytes";
  let k' = Array.copy k in
  for i = 0 to 3 do
    k'.(i) <- k.(i) lxor get_word w (4 * i)
  done;
  k'

(* Last round: SubBytes and ShiftRows without MixColumns, so the S-box
   itself rather than the tables. *)
let final_word (k : key) a b c d i =
  (lookup sbox (a lsr 24) lsl 24)
  lor (lookup sbox (b lsr 16) lsl 16)
  lor (lookup sbox (c lsr 8) lsl 8)
  lor lookup sbox d
  lxor k.(40 + i)

(* Rounds [r..9] on the state columns [s0..s3], then the last round into
   [dst]. A top-level tail-recursive function of immediate ints: the state
   lives in registers and a block allocates nothing. *)
let rec rounds (k : key) r s0 s1 s2 s3 dst dst_pos =
  if r = 10 then begin
    set_word dst dst_pos (final_word k s0 s1 s2 s3 0);
    set_word dst (dst_pos + 4) (final_word k s1 s2 s3 s0 1);
    set_word dst (dst_pos + 8) (final_word k s2 s3 s0 s1 2);
    set_word dst (dst_pos + 12) (final_word k s3 s0 s1 s2 3)
  end
  else begin
    let rk = 4 * r in
    let t0 =
      lookup te0 (s0 lsr 24) lxor lookup te1 (s1 lsr 16) lxor lookup te2 (s2 lsr 8)
      lxor lookup te3 s3 lxor k.(rk)
    in
    let t1 =
      lookup te0 (s1 lsr 24) lxor lookup te1 (s2 lsr 16) lxor lookup te2 (s3 lsr 8)
      lxor lookup te3 s0 lxor k.(rk + 1)
    in
    let t2 =
      lookup te0 (s2 lsr 24) lxor lookup te1 (s3 lsr 16) lxor lookup te2 (s0 lsr 8)
      lxor lookup te3 s1 lxor k.(rk + 2)
    in
    let t3 =
      lookup te0 (s3 lsr 24) lxor lookup te1 (s0 lsr 16) lxor lookup te2 (s1 lsr 8)
      lxor lookup te3 s2 lxor k.(rk + 3)
    in
    rounds k (r + 1) t0 t1 t2 t3 dst dst_pos
  end

(* The whole source block is read into the four state words before the
   first byte of [dst] is written, which is what lets [src] and [dst]
   alias. Both ranges are checked up front so a bad offset never leaves
   [dst] half written. *)
let encrypt_block key src ~pos dst ~dst_pos =
  if pos < 0 || pos > Bytes.length src - 16 || dst_pos < 0 || dst_pos > Bytes.length dst - 16
  then invalid_arg "Aes.encrypt_block: block out of bounds";
  let s0 = get_word src pos lxor key.(0) in
  let s1 = get_word src (pos + 4) lxor key.(1) in
  let s2 = get_word src (pos + 8) lxor key.(2) in
  let s3 = get_word src (pos + 12) lxor key.(3) in
  rounds key 1 s0 s1 s2 s3 dst dst_pos

let encrypt key block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt: block must be 16 bytes";
  let src = Bytes.of_string block in
  let dst = Bytes.create 16 in
  encrypt_block key src ~pos:0 dst ~dst_pos:0;
  Bytes.to_string dst
