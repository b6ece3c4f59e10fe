(* Known-answer tests for the crypto substrate: FIPS-197 AES vectors and
   RFC 4493 CMAC vectors, plus property tests on the MAC. *)

open Asc_crypto

let hex = Hex.decode

let check_hex msg expected actual = Alcotest.(check string) msg expected (Hex.encode actual)

(* --- AES-128 known answers --- *)

let test_aes_fips197 () =
  (* FIPS-197 Appendix B. *)
  let key = Aes.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex "FIPS-197 B"
    "3925841d02dc09fbdc118597196a0b32"
    (Aes.encrypt key (hex "3243f6a8885a308d313198a2e0370734"))

let test_aes_fips197_c1 () =
  (* FIPS-197 Appendix C.1. *)
  let key = Aes.expand (hex "000102030405060708090a0b0c0d0e0f") in
  check_hex "FIPS-197 C.1"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Aes.encrypt key (hex "00112233445566778899aabbccddeeff"))

let test_aes_nist_ecb () =
  (* NIST SP 800-38A F.1.1 ECB-AES128 encrypt, all four blocks. *)
  let key = Aes.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let cases =
    [ ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4") ]
  in
  List.iter
    (fun (pt, ct) -> check_hex ("ECB " ^ pt) ct (Aes.encrypt key (hex pt)))
    cases

let test_aes_bad_key () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand: key must be 16 bytes")
    (fun () -> ignore (Aes.expand "short"))

(* --- Byte-wise reference AES --- *)

(* FIPS-197 one byte at a time: SubBytes, ShiftRows, MixColumns and
   AddRoundKey as separate passes over a 16-byte column-major state, with
   its own S-box and key schedule. [Aes] computes the same function with
   round tables; the differential property below pins the two together. *)
module Ref = struct
  let xtime b =
    let b2 = b lsl 1 in
    if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

  let gmul a b =
    let rec loop a b acc =
      if b = 0 then acc
      else
        let acc = if b land 1 <> 0 then acc lxor a else acc in
        loop (xtime a) (b lsr 1) acc
    in
    loop a b 0

  let sbox =
    let inverse = Array.make 256 0 in
    for a = 1 to 255 do
      for b = 1 to 255 do
        if gmul a b = 1 then inverse.(a) <- b
      done
    done;
    let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
    Array.init 256 (fun i ->
        let x = inverse.(i) in
        x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63)

  (* round keys as 11 x 16 bytes, in state order *)
  let expand raw =
    let w = Array.make 44 [||] in
    for i = 0 to 3 do
      w.(i) <- Array.init 4 (fun j -> Char.code raw.[(4 * i) + j])
    done;
    let rcon = ref 1 in
    for i = 4 to 43 do
      let t = Array.copy w.(i - 1) in
      let t =
        if i mod 4 = 0 then begin
          let r = [| sbox.(t.(1)) lxor !rcon; sbox.(t.(2)); sbox.(t.(3)); sbox.(t.(0)) |] in
          rcon := xtime !rcon;
          r
        end
        else t
      in
      w.(i) <- Array.init 4 (fun j -> w.(i - 4).(j) lxor t.(j))
    done;
    Array.init 11 (fun r -> Array.init 16 (fun i -> w.((4 * r) + (i / 4)).(i mod 4)))

  let add_round_key st rk = Array.iteri (fun i k -> st.(i) <- st.(i) lxor k) rk
  let sub_bytes st = Array.iteri (fun i b -> st.(i) <- sbox.(b)) st

  (* row r is st.(r), st.(r+4), st.(r+8), st.(r+12); rotate it left by r *)
  let shift_rows st =
    let old = Array.copy st in
    for r = 0 to 3 do
      for c = 0 to 3 do
        st.(r + (4 * c)) <- old.(r + (4 * ((c + r) mod 4)))
      done
    done

  let mix_columns st =
    for c = 0 to 3 do
      let i = 4 * c in
      let a0 = st.(i) and a1 = st.(i + 1) and a2 = st.(i + 2) and a3 = st.(i + 3) in
      st.(i) <- xtime a0 lxor (xtime a1 lxor a1) lxor a2 lxor a3;
      st.(i + 1) <- a0 lxor xtime a1 lxor (xtime a2 lxor a2) lxor a3;
      st.(i + 2) <- a0 lxor a1 lxor xtime a2 lxor (xtime a3 lxor a3);
      st.(i + 3) <- xtime a0 lxor a0 lxor a1 lxor a2 lxor xtime a3
    done

  let encrypt raw block =
    let rk = expand raw in
    let st = Array.init 16 (fun i -> Char.code block.[i]) in
    add_round_key st rk.(0);
    for round = 1 to 9 do
      sub_bytes st;
      shift_rows st;
      mix_columns st;
      add_round_key st rk.(round)
    done;
    sub_bytes st;
    shift_rows st;
    add_round_key st rk.(10);
    String.init 16 (fun i -> Char.chr st.(i))
end

let test_ref_fips197 () =
  check_hex "reference FIPS-197 B" "3925841d02dc09fbdc118597196a0b32"
    (Ref.encrypt
       (hex "2b7e151628aed2a6abf7158809cf4f3c")
       (hex "3243f6a8885a308d313198a2e0370734"))

let prop_aes_matches_reference =
  QCheck.Test.make ~name:"table AES = byte-wise reference" ~count:10_000
    QCheck.(pair (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16)))
    (fun (raw, block) -> Aes.encrypt (Aes.expand raw) block = Ref.encrypt raw block)

(* src == dst at non-zero offsets: the whole block is read before any of
   it is overwritten, and the bytes around the block are left alone. *)
let test_aes_in_place () =
  let raw = hex "000102030405060708090a0b0c0d0e0f" in
  let key = Aes.expand raw in
  let block = hex "00112233445566778899aabbccddeeff" in
  let buf = Bytes.make 40 '\xaa' in
  Bytes.blit_string block 0 buf 5 16;
  Aes.encrypt_block key buf ~pos:5 buf ~dst_pos:5;
  check_hex "in place" "69c4e0d86a7b0430d8cdb78070b4c55a" (Bytes.sub_string buf 5 16);
  Alcotest.(check string) "prefix untouched" (String.make 5 '\xaa') (Bytes.sub_string buf 0 5);
  Alcotest.(check string) "suffix untouched" (String.make 19 '\xaa') (Bytes.sub_string buf 21 19);
  (* overlapping, shifted: read at 3, write at 11 *)
  Bytes.fill buf 0 40 '\000';
  Bytes.blit_string block 0 buf 3 16;
  Aes.encrypt_block key buf ~pos:3 buf ~dst_pos:11;
  check_hex "overlapping shift" (Hex.encode (Ref.encrypt raw block)) (Bytes.sub_string buf 11 16)

let words () = int_of_float (Gc.minor_words ())

(* The trap path's block cipher and its single-block CMAC step allocate
   nothing on the host. *)
let test_aes_no_alloc () =
  let raw = hex "2b7e151628aed2a6abf7158809cf4f3c" in
  let key = Aes.expand raw and cmac_key = Cmac.of_raw raw in
  let b = Bytes.make 16 'x' in
  let tag = Bytes.create 16 in
  Aes.encrypt_block key b ~pos:0 b ~dst_pos:0;
  Cmac.mac_block_into cmac_key b ~dst:tag;
  let w0 = words () in
  for _ = 1 to 1000 do
    Aes.encrypt_block key b ~pos:0 b ~dst_pos:0
  done;
  let w1 = words () in
  for _ = 1 to 1000 do
    Cmac.mac_block_into cmac_key b ~dst:tag
  done;
  let w2 = words () in
  Alcotest.(check int) "Aes.encrypt_block words" 0 (w1 - w0);
  Alcotest.(check int) "Cmac.mac_block_into words" 0 (w2 - w1)

let test_aes_out_of_range () =
  let key = Aes.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let buf = Bytes.make 20 '\000' in
  let raises name f =
    Bytes.fill buf 0 20 '\000';
    (match f () with
     | () -> Alcotest.failf "%s: accepted" name
     | exception Invalid_argument _ -> ());
    Alcotest.(check string)
      (name ^ ": nothing written") (String.make 20 '\000') (Bytes.to_string buf)
  in
  raises "src pos past end" (fun () -> Aes.encrypt_block key buf ~pos:5 buf ~dst_pos:0);
  raises "negative src pos" (fun () -> Aes.encrypt_block key buf ~pos:(-1) buf ~dst_pos:0);
  raises "dst pos past end" (fun () -> Aes.encrypt_block key buf ~pos:0 buf ~dst_pos:5);
  raises "negative dst pos" (fun () -> Aes.encrypt_block key buf ~pos:0 buf ~dst_pos:(-1))

(* --- CMAC known answers (RFC 4493 section 4) --- *)

let cmac_key = Cmac.of_raw (hex "2b7e151628aed2a6abf7158809cf4f3c")

let test_cmac_empty () =
  check_hex "CMAC len 0" "bb1d6929e95937287fa37d129b756746" (Cmac.mac cmac_key "")

let test_cmac_16 () =
  check_hex "CMAC len 16" "070a16b46b4d4144f79bdd9dd04a287c"
    (Cmac.mac cmac_key (hex "6bc1bee22e409f96e93d7e117393172a"))

let test_cmac_40 () =
  check_hex "CMAC len 40" "dfa66747de9ae63030ca32611497c827"
    (Cmac.mac cmac_key
       (hex
          "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411"))

let test_cmac_64 () =
  check_hex "CMAC len 64" "51f0bebf7e3b9d92fc49741779363cfe"
    (Cmac.mac cmac_key
       (hex
          "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"))

let test_cmac_slice () =
  (* mac_bytes on an inner slice must equal mac on the substring. *)
  let msg = "prefix--the real message--suffix" in
  let inner = "the real message" in
  let whole = Cmac.mac cmac_key inner in
  let sliced =
    Cmac.mac_bytes cmac_key (Bytes.of_string msg) ~pos:8 ~len:(String.length inner)
  in
  Alcotest.(check string) "slice equals substring" (Hex.encode whole) (Hex.encode sliced)

let test_equal_tags () =
  let t = Cmac.mac cmac_key "x" in
  Alcotest.(check bool) "tag equals itself" true (Cmac.equal_tags t t);
  Alcotest.(check bool) "different length" false (Cmac.equal_tags t "short");
  let t' = Bytes.of_string t in
  Bytes.set t' 15 (Char.chr (Char.code (Bytes.get t' 15) lxor 1));
  Alcotest.(check bool) "flipped bit" false (Cmac.equal_tags t (Bytes.to_string t'))

(* --- Hex --- *)

let test_hex_roundtrip () =
  let s = String.init 256 Char.chr in
  Alcotest.(check string) "roundtrip" s (Hex.decode (Hex.encode s));
  Alcotest.(check string) "uppercase accepted" "\xab\xcd" (Hex.decode "ABCD")

let test_hex_errors () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

(* --- Properties --- *)

let prop_mac_deterministic =
  QCheck.Test.make ~name:"cmac deterministic" ~count:200 QCheck.string (fun s ->
      Cmac.mac cmac_key s = Cmac.mac cmac_key s)

let prop_mac_distinguishes =
  (* Flipping any byte of a message changes the tag (overwhelming probability;
     a failure here would indicate a real implementation bug). *)
  QCheck.Test.make ~name:"cmac sensitive to message"
    ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 200)) small_nat)
    (fun (s, i) ->
      let i = i mod String.length s in
      let s' = Bytes.of_string s in
      Bytes.set s' i (Char.chr (Char.code (Bytes.get s' i) lxor 0x5a));
      Cmac.mac cmac_key s <> Cmac.mac cmac_key (Bytes.to_string s'))

let prop_mac_key_separation =
  QCheck.Test.make ~name:"cmac distinct keys give distinct tags" ~count:100
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
      let k2 = Cmac.of_raw (Hex.decode "000102030405060708090a0b0c0d0e0f") in
      Cmac.mac cmac_key s <> Cmac.mac k2 s)

let prop_tag_len =
  QCheck.Test.make ~name:"tags are 16 bytes" ~count:100 QCheck.string (fun s ->
      String.length (Cmac.mac cmac_key s) = Cmac.tag_len)

(* --- Streaming CMAC --- *)

(* Edge lengths around the block size: empty, partial, exact single and
   multi block, and >1-block tails after a save point. *)
let edge_lengths = [ 0; 1; 15; 16; 17; 31; 32; 33; 48; 49 ]

let test_streaming_edges () =
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 7 + n) land 0xff)) in
      let st = Cmac.Streaming.init cmac_key in
      Cmac.Streaming.update_string st msg;
      Alcotest.(check string)
        (Printf.sprintf "streaming = one-shot at len %d" n)
        (Hex.encode (Cmac.mac cmac_key msg))
        (Hex.encode (Cmac.Streaming.final st)))
    edge_lengths

(* Every (prefix length, tail length) pair from the edge set, absorbed
   through a save/resume boundary: the chaining state saved after the
   prefix must finish to the one-shot tag of prefix ^ tail. *)
let test_streaming_save_resume_edges () =
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          let msg = String.init (p + q) (fun i -> Char.chr ((i * 13 + p + q) land 0xff)) in
          let st = Cmac.Streaming.init cmac_key in
          Cmac.Streaming.update_string st (String.sub msg 0 p);
          let sv = Cmac.Streaming.save st in
          let st' = Cmac.Streaming.resume cmac_key sv in
          Cmac.Streaming.update_string st' (String.sub msg p q);
          Alcotest.(check string)
            (Printf.sprintf "save@%d resume +%d" p q)
            (Hex.encode (Cmac.mac cmac_key msg))
            (Hex.encode (Cmac.Streaming.final st')))
        edge_lengths)
    edge_lengths

(* [final] must not disturb the state: finalizing mid-stream and then
   continuing gives the same tag as never finalizing, and a saved state
   can be resumed any number of times. *)
let test_streaming_final_nondestructive () =
  let msg = String.init 77 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let st = Cmac.Streaming.init cmac_key in
  Cmac.Streaming.update_string st (String.sub msg 0 30);
  let mid = Cmac.Streaming.final st in
  Alcotest.(check string) "mid-stream tag" (Hex.encode (Cmac.mac cmac_key (String.sub msg 0 30)))
    (Hex.encode mid);
  Cmac.Streaming.update_string st (String.sub msg 30 47);
  Alcotest.(check string) "continue after final" (Hex.encode (Cmac.mac cmac_key msg))
    (Hex.encode (Cmac.Streaming.final st));
  let sv = Cmac.Streaming.save st in
  let once = Cmac.Streaming.final (Cmac.Streaming.resume cmac_key sv) in
  let twice = Cmac.Streaming.final (Cmac.Streaming.resume cmac_key sv) in
  Alcotest.(check string) "saved state re-resumable" (Hex.encode once) (Hex.encode twice)

let prop_streaming_split =
  (* Absorbing a message in arbitrary chunks equals the one-shot CMAC: the
     cut list is interpreted as successive chunk sizes over the message. *)
  QCheck.Test.make ~name:"streaming cmac = one-shot under arbitrary splits" ~count:500
    QCheck.(pair (string_of_size (Gen.int_range 0 200)) (list small_nat))
    (fun (s, cuts) ->
      let st = Cmac.Streaming.init cmac_key in
      let n = String.length s in
      let pos = ref 0 in
      List.iter
        (fun c ->
          let len = min c (n - !pos) in
          Cmac.Streaming.update st (Bytes.unsafe_of_string s) ~pos:!pos ~len;
          pos := !pos + len)
        cuts;
      Cmac.Streaming.update st (Bytes.unsafe_of_string s) ~pos:!pos ~len:(n - !pos);
      Cmac.Streaming.total st = n && Cmac.Streaming.final st = Cmac.mac cmac_key s)

let prop_streaming_save_resume =
  (* Saving at an arbitrary point and resuming (possibly into a fresh state
     while the original keeps running) reproduces the one-shot tag. *)
  QCheck.Test.make ~name:"streaming cmac save/resume at arbitrary points" ~count:500
    QCheck.(pair (string_of_size (Gen.int_range 0 200)) small_nat)
    (fun (s, cut) ->
      let n = String.length s in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let st = Cmac.Streaming.init cmac_key in
      Cmac.Streaming.update_string st (String.sub s 0 cut);
      let sv = Cmac.Streaming.save st in
      (* the original state keeps absorbing — interleaved with the resumed
         copy, proving the two share no mutable scratch *)
      let st' = Cmac.Streaming.resume cmac_key sv in
      Cmac.Streaming.update_string st (String.sub s cut (n - cut));
      Cmac.Streaming.update_string st' (String.sub s cut (n - cut));
      let expect = Cmac.mac cmac_key s in
      Cmac.Streaming.final st = expect && Cmac.Streaming.final st' = expect)

let suite =
  [ Alcotest.test_case "aes fips197 appendix B" `Quick test_aes_fips197;
    Alcotest.test_case "aes fips197 appendix C.1" `Quick test_aes_fips197_c1;
    Alcotest.test_case "aes nist ecb vectors" `Quick test_aes_nist_ecb;
    Alcotest.test_case "aes rejects bad key" `Quick test_aes_bad_key;
    Alcotest.test_case "cmac rfc4493 empty" `Quick test_cmac_empty;
    Alcotest.test_case "cmac rfc4493 16B" `Quick test_cmac_16;
    Alcotest.test_case "cmac rfc4493 40B" `Quick test_cmac_40;
    Alcotest.test_case "cmac rfc4493 64B" `Quick test_cmac_64;
    Alcotest.test_case "cmac slice" `Quick test_cmac_slice;
    Alcotest.test_case "constant-time tag compare" `Quick test_equal_tags;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "hex errors" `Quick test_hex_errors;
    Alcotest.test_case "streaming cmac edge lengths" `Quick test_streaming_edges;
    Alcotest.test_case "streaming save/resume edge pairs" `Quick
      test_streaming_save_resume_edges;
    Alcotest.test_case "streaming final is non-destructive" `Quick
      test_streaming_final_nondestructive ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_mac_deterministic; prop_mac_distinguishes; prop_mac_key_separation;
        prop_tag_len; prop_streaming_split; prop_streaming_save_resume;
        prop_aes_matches_reference ]
  @ [ Alcotest.test_case "reference aes fips197 appendix B" `Quick test_ref_fips197;
      Alcotest.test_case "aes in place at offsets" `Quick test_aes_in_place;
      Alcotest.test_case "aes and cmac block step allocate nothing" `Quick test_aes_no_alloc;
      Alcotest.test_case "aes out-of-range offsets raise" `Quick test_aes_out_of_range ]

let () = Alcotest.run "asc_crypto" [ ("crypto", suite) ]
