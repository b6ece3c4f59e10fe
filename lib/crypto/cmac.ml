type key = {
  aes : Aes.key;
  aes_k1 : Aes.key;  (* [aes] with K1 folded into round key 0: AES(b xor K1) in one call *)
  k1 : bytes;
  k2 : bytes;
  (* per-key scratch reused by [mac_bytes] and [Streaming.final], hoisted
     out of the per-call path so the verification hot path allocates only
     its returned tag. Sound because MAC computations never nest: each one
     runs to completion before the next starts (no concurrency in the
     simulated kernel), and the tag is copied out before returning. *)
  s_x : bytes;
  s_block : bytes;
  s_last : bytes;
}

let tag_len = 16

(* Left shift of a 16-byte block by one bit; XORs in the GF(2^128) reduction
   constant 0x87 when the input block's MSB was set, per RFC 4493. *)
let double block =
  let msb_set = Char.code (Bytes.get block 0) land 0x80 <> 0 in
  let out = Bytes.create 16 in
  let carry = ref 0 in
  for i = 15 downto 0 do
    let b = Char.code (Bytes.get block i) in
    Bytes.set out i (Char.chr (((b lsl 1) lor !carry) land 0xff));
    carry := b lsr 7
  done;
  if msb_set then Bytes.set out 15 (Char.chr (Char.code (Bytes.get out 15) lxor 0x87));
  out

let of_raw raw =
  let aes = Aes.expand raw in
  let zero = Bytes.make 16 '\000' in
  let l = Bytes.create 16 in
  Aes.encrypt_block aes zero ~pos:0 l ~dst_pos:0;
  let k1 = double l in
  let k2 = double k1 in
  { aes;
    aes_k1 = Aes.prewhiten aes k1;
    k1;
    k2;
    s_x = Bytes.create 16;
    s_block = Bytes.create 16;
    s_last = Bytes.create 16 }

(* [dst.[0..15] <- dst.[0..15] xor src.[0..15]] as two 64-bit words; the
   native compiler keeps the [int64]s unboxed *)
let xor_into dst src =
  Bytes.set_int64_ne dst 0 (Int64.logxor (Bytes.get_int64_ne dst 0) (Bytes.get_int64_ne src 0));
  Bytes.set_int64_ne dst 8 (Int64.logxor (Bytes.get_int64_ne dst 8) (Bytes.get_int64_ne src 8))

let mac_bytes key msg ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length msg then
    invalid_arg "Cmac.mac_bytes: slice out of bounds";
  let n_full = len / 16 and rem = len mod 16 in
  (* Number of blocks processed before the (padded or complete) last block. *)
  let head_blocks = if len = 0 then 0 else if rem = 0 then n_full - 1 else n_full in
  let x = key.s_x and block = key.s_block and last = key.s_last in
  Bytes.fill x 0 16 '\000';
  for i = 0 to head_blocks - 1 do
    Bytes.blit msg (pos + (16 * i)) block 0 16;
    xor_into x block;
    Aes.encrypt_block key.aes x ~pos:0 x ~dst_pos:0
  done;
  let complete = len > 0 && rem = 0 in
  if complete then begin
    Bytes.blit msg (pos + (16 * head_blocks)) last 0 16;
    xor_into last key.k1
  end
  else begin
    Bytes.fill last 0 16 '\000';
    let tail = len - (16 * head_blocks) in
    Bytes.blit msg (pos + (16 * head_blocks)) last 0 tail;
    Bytes.set last tail '\x80';
    xor_into last key.k2
  end;
  xor_into x last;
  Aes.encrypt_block key.aes x ~pos:0 x ~dst_pos:0;
  Bytes.to_string x

let mac key msg = mac_bytes key (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg)

(* CMAC of a single complete 16-byte block, written into [dst] without
   allocating: the message is its own (complete) final block, so the tag is
   AES(M1 xor k1) — the degenerate case of the streaming chain, where the
   saved state over the empty prefix is just the subkey schedule. [aes_k1]
   already holds the XOR with k1, so this is one block encryption straight
   from [b] into [dst] (which may alias it). Equal to [mac] of the same 16
   bytes (pinned by the unit tests). *)
let mac_block_into key b ~dst =
  if Bytes.length b < 16 then invalid_arg "Cmac.mac_block_into: block must be 16 bytes";
  if Bytes.length dst < 16 then invalid_arg "Cmac.mac_block_into: dst must hold 16 bytes";
  Aes.encrypt_block key.aes_k1 b ~pos:0 dst ~dst_pos:0

let equal_tags a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let equal_tags_bytes a b =
  if Bytes.length a <> Bytes.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to Bytes.length a - 1 do
      acc := !acc lor (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i))
    done;
    !acc = 0
  end

(* Incremental CMAC. The invariant mirrors the one-shot computation: [st_x]
   is the CBC chaining value over every *completed* block, and the most
   recent <= 16 bytes wait in [st_buf] — a full buffered block is only
   encrypted once more data arrives, because the final block must still be
   available for the k1/k2 treatment at [final] time. Consequently after any
   nonempty absorption [st_len] is in 1..16, and [st_len = 0] iff no bytes
   were absorbed at all — exactly the two shapes [final] distinguishes. *)
module Streaming = struct
  type state = {
    st_key : key;
    st_x : bytes;
    st_buf : bytes;
    mutable st_len : int;
    mutable st_total : int;
  }

  type saved = {
    sv_x : string;
    sv_buf : string;
    sv_total : int;
  }

  let init key =
    { st_key = key;
      st_x = Bytes.make 16 '\000';
      st_buf = Bytes.create 16;
      st_len = 0;
      st_total = 0 }

  let total st = st.st_total

  (* fold the full buffered block into the chain; only called when more
     data follows, so the last block is always withheld *)
  let flush st =
    xor_into st.st_x st.st_buf;
    Aes.encrypt_block st.st_key.aes st.st_x ~pos:0 st.st_x ~dst_pos:0;
    st.st_len <- 0

  let update st msg ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length msg then
      invalid_arg "Cmac.Streaming.update: slice out of bounds";
    let i = ref pos and remaining = ref len in
    while !remaining > 0 do
      if st.st_len = 16 then flush st;
      let n = min !remaining (16 - st.st_len) in
      Bytes.blit msg !i st.st_buf st.st_len n;
      st.st_len <- st.st_len + n;
      i := !i + n;
      remaining := !remaining - n
    done;
    st.st_total <- st.st_total + len

  let update_string st s =
    update st (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

  let save st =
    { sv_x = Bytes.to_string st.st_x;
      sv_buf = Bytes.sub_string st.st_buf 0 st.st_len;
      sv_total = st.st_total }

  let resume key sv =
    if String.length sv.sv_x <> 16 then invalid_arg "Cmac.Streaming.resume: bad chaining value";
    let len = String.length sv.sv_buf in
    if len > 16 || sv.sv_total < len || (sv.sv_total > 0 && len = 0) then
      invalid_arg "Cmac.Streaming.resume: inconsistent saved state";
    let st =
      { st_key = key;
        st_x = Bytes.of_string sv.sv_x;
        st_buf = Bytes.create 16;
        st_len = len;
        st_total = sv.sv_total }
    in
    Bytes.blit_string sv.sv_buf 0 st.st_buf 0 len;
    st

  (* Non-destructive: works on the per-key scratch so the state can keep
     absorbing afterwards (or be finalized again). *)
  let final st =
    let k = st.st_key in
    Bytes.blit st.st_x 0 k.s_x 0 16;
    if st.st_total > 0 && st.st_len = 16 then begin
      Bytes.blit st.st_buf 0 k.s_last 0 16;
      xor_into k.s_last k.k1
    end
    else begin
      Bytes.fill k.s_last 0 16 '\000';
      Bytes.blit st.st_buf 0 k.s_last 0 st.st_len;
      Bytes.set k.s_last st.st_len '\x80';
      xor_into k.s_last k.k2
    end;
    xor_into k.s_x k.s_last;
    Aes.encrypt_block k.aes k.s_x ~pos:0 k.s_x ~dst_pos:0;
    Bytes.to_string k.s_x
end
