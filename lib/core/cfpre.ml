(* Per-pid, site-indexed precompiled control-flow policy: predecessor
   bitsets.

   Soundness rests on what an entry asserts and what the fast path
   re-checks. An entry is only compiled from a predecessor set whose
   authenticated-string MAC just verified on the slow path, so it pins one
   (addr, len, tag) reference together with the exact contents the tag
   covers. On a later trap the fast path accepts the entry only when the
   live reference equals the compiled one *and* the live guest bytes equal
   the compiled contents — under which the slow path's string-MAC check
   would necessarily succeed with the same bytes, so replacing it with the
   bitset membership test (built from those same bytes, bit b set iff
   [Encoded.predset_mem contents b]) decides exactly what the slow path
   would decide. Any missing entry, changed reference or changed byte
   falls back to the untouched slow path, so denies are byte-identical
   with the table on or off. The nonce-fresh lbMAC is deliberately NOT
   cached here: the checker recomputes it on every call. *)

module Metrics = Asc_obs.Metrics

type entry = {
  ce_ref : Encoded.as_ref;  (* compiled predecessor-set reference *)
  ce_contents : string;     (* the slow-path-verified set bytes *)
  ce_bits : Bytes.t;        (* bit (b - ce_base) set iff block b is in the set *)
  ce_base : int;            (* smallest id in the set (bitset offset) *)
  ce_span : int;            (* ids in [ce_base, ce_base + ce_span) are representable *)
}

type t = {
  sites : (int, entry) Pid_table.t;
  hits : Metrics.counter;
  misses : Metrics.counter;
  fallbacks : Metrics.counter;
  compiles : Metrics.counter;
}

type verdict =
  | Hit of entry
  | Declined of Asc_obs.Telemetry.cf_reason

(* sets whose ids span more than this are not compiled *)
let block_limit = 65536

let create ~registry () =
  { sites = Pid_table.create registry ~prefix:"cfpre";
    hits =
      Metrics.counter registry "cfpre.hits"
        ~help:"control-flow bitset hits (predecessor check by load+test)";
    misses = Metrics.counter registry "cfpre.misses";
    fallbacks =
      Metrics.counter registry "cfpre.fallbacks"
        ~help:"reference or contents mismatches sent to the slow path";
    compiles = Metrics.counter registry "cfpre.compiles" }

let drop_pid t pid = Pid_table.drop_pid t.sites pid
let note_saved t n = Pid_table.note_saved t.sites n
let size t = Pid_table.size t.sites
let hits t = Metrics.counter_value t.hits
let misses t = Metrics.counter_value t.misses
let fallbacks t = Metrics.counter_value t.fallbacks
let compiles t = Metrics.counter_value t.compiles
let invalidations t = Pid_table.invalidations t.sites
let cycles_saved t = Pid_table.cycles_saved t.sites

let member entry bid =
  let o = bid - entry.ce_base in
  o >= 0 && o < entry.ce_span
  && Char.code (Bytes.get entry.ce_bits (o lsr 3)) land (1 lsl (o land 7)) <> 0

let contents_length entry = String.length entry.ce_contents

let state_into buf ~counter ~last_block =
  Encoded.set_u64 buf ~pos:0 counter;
  Encoded.set_u64 buf ~pos:8 last_block

let ref_equal (a : Encoded.as_ref) (b : Encoded.as_ref) =
  a.Encoded.as_addr = b.Encoded.as_addr
  && a.Encoded.as_len = b.Encoded.as_len
  && String.equal a.Encoded.as_mac b.Encoded.as_mac

(* Deliberately flat, and the lookup is exception-style: the probe runs
   on every monitored call and its words count against the fast path's
   allocation budget — on the hit path only the [Hit] block itself is
   allocated, and every [Declined] is a constant. *)
let check t ~m ~pid ~site ~(pred_ref : Encoded.as_ref) =
  match Pid_table.find t.sites ~pid site with
  | exception Not_found ->
    Metrics.inc t.misses;
    Declined Asc_obs.Telemetry.Cf_slow
  | e ->
    if not (ref_equal e.ce_ref pred_ref) then begin
      Metrics.inc t.fallbacks;
      Declined Asc_obs.Telemetry.Cf_fallback_ref
    end
    else if not (Svm.Machine.mem_equal m ~addr:pred_ref.Encoded.as_addr e.ce_contents) then begin
      (* the reference (and its tag) matches but the guest bytes moved out
         from under it — the slow path re-reads and re-MACs, and denies *)
      Metrics.inc t.fallbacks;
      Declined Asc_obs.Telemetry.Cf_fallback_contents
    end
    else begin
      Metrics.inc t.hits;
      Hit e
    end

(* Parse the sorted-unique u64 LE block ids the verified set carries.
   Returns [None] — compile declined — on a malformed length, an id that
   overflows the host int (negative after 63-bit truncation), or a set
   whose ids span more than [block_limit] (ids are globally unique —
   program id in the high bits — so the bitset is offset from the set's
   smallest id and only the *span* must stay dense); such sites simply
   keep taking the slow path, which decides membership from the string
   itself. *)
let parse_ids contents =
  let n = String.length contents in
  if n = 0 || n mod 8 <> 0 then None
  else begin
    let ids = List.init (n / 8) (fun i -> Int64.to_int (String.get_int64_le contents (8 * i))) in
    let base = List.fold_left min max_int ids in
    let span = List.fold_left max 0 ids - base + 1 in
    if base < 0 || span > block_limit then None else Some (base, span, ids)
  end

let compile t ~pid ~site ~(pred_ref : Encoded.as_ref) ~contents =
  if not (Pid_table.mem t.sites ~pid site) then begin
    match parse_ids contents with
    | None -> ()
    | Some (base, span, ids) ->
      let bits = Bytes.make ((span + 7) / 8) '\000' in
      List.iter
        (fun v ->
          let o = v - base in
          Bytes.set bits (o lsr 3)
            (Char.chr (Char.code (Bytes.get bits (o lsr 3)) lor (1 lsl (o land 7)))))
        ids;
      Pid_table.add t.sites ~pid site
        { ce_ref = pred_ref; ce_contents = contents; ce_bits = bits; ce_base = base;
          ce_span = span };
      Metrics.inc t.compiles
  end
