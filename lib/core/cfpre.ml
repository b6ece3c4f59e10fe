(* Per-pid, site-indexed precompiled control-flow policy: predecessor
   bitsets plus the per-pid lbMAC chain scratch.

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
   cached here: the checker still recomputes it on every call; this module
   only hands out the per-pid scratch the amortized single-block chain
   step writes into. *)

type scratch = {
  ps_state : Bytes.t;  (* 16 B: u64 counter || u64 lastBlock (LE) *)
  ps_tag : Bytes.t;    (* 16 B: the freshly computed lbMAC *)
  ps_read : Bytes.t;   (* 16 B: the lbMAC read back from guest memory *)
}

type entry = {
  ce_ref : Encoded.as_ref;  (* compiled predecessor-set reference *)
  ce_contents : string;     (* the slow-path-verified set bytes *)
  ce_bits : Bytes.t;        (* bit (b - ce_base) set iff block b is in the set *)
  ce_base : int;            (* smallest id in the set (bitset offset) *)
  ce_span : int;            (* ids in [ce_base, ce_base + ce_span) are representable *)
}

type per_pid = {
  cs_sites : (int, entry) Hashtbl.t;
  cs_scratch : scratch;
}

type t = {
  max_sites : int;     (* per-pid bound on compiled entries *)
  block_limit : int;   (* sets whose ids span at least this are not compiled *)
  tbl : (int, per_pid) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable fallbacks : int;
  mutable compiles : int;
  mutable invalidations : int;
  mutable saved : int;
  ctr_hits : Asc_obs.Metrics.counter;
  ctr_misses : Asc_obs.Metrics.counter;
  ctr_fallbacks : Asc_obs.Metrics.counter;
  ctr_compiles : Asc_obs.Metrics.counter;
  ctr_invalidations : Asc_obs.Metrics.counter;
  g_size : Asc_obs.Metrics.gauge;
  g_saved : Asc_obs.Metrics.gauge;
}

type fallback_cause =
  | Ref_mismatch
  | Contents_mismatch

type verdict =
  | Miss
  | Hit of { entry : entry; scratch : scratch }
  | Fallback of fallback_cause

let create ?(max_sites = 4096) ?(block_limit = 65536) ~registry () =
  if max_sites < 1 then invalid_arg "Cfpre.create: max_sites must be >= 1";
  if block_limit < 1 then invalid_arg "Cfpre.create: block_limit must be >= 1";
  { max_sites;
    block_limit;
    tbl = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    fallbacks = 0;
    compiles = 0;
    invalidations = 0;
    saved = 0;
    ctr_hits =
      Asc_obs.Metrics.counter registry "cfpre.hits"
        ~help:"control-flow bitset hits (predecessor check by load+test)";
    ctr_misses = Asc_obs.Metrics.counter registry "cfpre.misses";
    ctr_fallbacks =
      Asc_obs.Metrics.counter registry "cfpre.fallbacks"
        ~help:"reference or contents mismatches sent to the slow path";
    ctr_compiles = Asc_obs.Metrics.counter registry "cfpre.compiles";
    ctr_invalidations =
      Asc_obs.Metrics.counter registry "cfpre.invalidations"
        ~help:"entries dropped on spawn / execve / process teardown";
    g_size = Asc_obs.Metrics.gauge registry "cfpre.size";
    g_saved =
      Asc_obs.Metrics.gauge registry "cfpre.cycles_saved"
        ~help:"modeled cycles skipped by the bitset + lbMAC-chain fast path" }

let hits t = t.hits
let misses t = t.misses
let fallbacks t = t.fallbacks
let compiles t = t.compiles
let invalidations t = t.invalidations
let cycles_saved t = t.saved

let size t = Hashtbl.fold (fun _ pp acc -> acc + Hashtbl.length pp.cs_sites) t.tbl 0
let set_size t = Asc_obs.Metrics.set t.g_size (size t)

let note_saved t n =
  t.saved <- t.saved + n;
  Asc_obs.Metrics.set t.g_saved t.saved

let fresh_scratch () =
  { ps_state = Bytes.create 16; ps_tag = Bytes.create 16; ps_read = Bytes.create 16 }

let drop_pid_entries t pid =
  match Hashtbl.find_opt t.tbl pid with
  | None -> ()
  | Some pp ->
    let n = Hashtbl.length pp.cs_sites in
    Hashtbl.remove t.tbl pid;
    if n > 0 then begin
      t.invalidations <- t.invalidations + n;
      Asc_obs.Metrics.add t.ctr_invalidations n
    end;
    set_size t

(* exec-time table creation: drop whatever an earlier image compiled for
   this pid and arm a fresh site index plus the pid's chain scratch *)
let prepare_pid t pid =
  drop_pid_entries t pid;
  Hashtbl.replace t.tbl pid { cs_sites = Hashtbl.create 16; cs_scratch = fresh_scratch () }

let invalidate_pid t pid = drop_pid_entries t pid

let member entry bid =
  let o = bid - entry.ce_base in
  o >= 0 && o < entry.ce_span
  && Char.code (Bytes.get entry.ce_bits (o lsr 3)) land (1 lsl (o land 7)) <> 0

let contents_length entry = String.length entry.ce_contents

let state_into sc ~counter ~last_block =
  Encoded.set_u64 sc.ps_state ~pos:0 counter;
  Encoded.set_u64 sc.ps_state ~pos:8 last_block

let ref_equal (a : Encoded.as_ref) (b : Encoded.as_ref) =
  a.Encoded.as_addr = b.Encoded.as_addr
  && a.Encoded.as_len = b.Encoded.as_len
  && String.equal a.Encoded.as_mac b.Encoded.as_mac

let miss t =
  t.misses <- t.misses + 1;
  Asc_obs.Metrics.inc t.ctr_misses;
  Miss

(* Deliberately flat, and the lookups use exception-style [Hashtbl.find]:
   the probe runs on every monitored call and its words count against the
   fast path's allocation budget — on the hit path only the [Hit] record
   itself is allocated, not two [find_opt] options. *)
let check t ~m ~pid ~site ~(pred_ref : Encoded.as_ref) =
  match Hashtbl.find t.tbl pid with
  | exception Not_found -> miss t
  | pp ->
    (match Hashtbl.find pp.cs_sites site with
     | exception Not_found -> miss t
     | e ->
       if not (ref_equal e.ce_ref pred_ref) then begin
         t.fallbacks <- t.fallbacks + 1;
         Asc_obs.Metrics.inc t.ctr_fallbacks;
         Fallback Ref_mismatch
       end
       else if not (Svm.Machine.mem_equal m ~addr:pred_ref.Encoded.as_addr e.ce_contents)
       then begin
         (* the reference (and its tag) matches but the guest bytes moved
            out from under it — the slow path re-reads and re-MACs, and
            denies *)
         t.fallbacks <- t.fallbacks + 1;
         Asc_obs.Metrics.inc t.ctr_fallbacks;
         Fallback Contents_mismatch
       end
       else begin
         t.hits <- t.hits + 1;
         Asc_obs.Metrics.inc t.ctr_hits;
         Hit { entry = e; scratch = pp.cs_scratch }
       end)

(* Parse the sorted-unique u64 LE block ids the verified set carries.
   Returns [None] — compile declined — on a malformed length, an id that
   overflows the host int (negative after 63-bit truncation), or a set
   whose ids span at least [block_limit] (ids are globally unique —
   program id in the high bits — so the bitset is offset from the set's
   smallest id and only the *span* must stay dense); such sites simply
   keep taking the slow path, which decides membership from the string
   itself. *)
let parse_ids t contents =
  let n = String.length contents in
  if n = 0 || n mod 8 <> 0 then None
  else begin
    let ids = ref [] in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n / 8 do
      let v = ref 0 in
      for k = 7 downto 0 do
        v := (!v lsl 8) lor Char.code contents.[(8 * !i) + k]
      done;
      if !v < 0 then ok := false else ids := !v :: !ids;
      incr i
    done;
    if not !ok then None
    else begin
      let base = List.fold_left min max_int !ids in
      let span = List.fold_left (fun acc v -> max acc (v - base + 1)) 0 !ids in
      if span > t.block_limit then None else Some (base, span, !ids)
    end
  end

let compile t ~pid ~site ~(pred_ref : Encoded.as_ref) ~contents =
  let pp =
    match Hashtbl.find_opt t.tbl pid with
    | Some pp -> pp
    | None ->
      let pp = { cs_sites = Hashtbl.create 16; cs_scratch = fresh_scratch () } in
      Hashtbl.replace t.tbl pid pp;
      pp
  in
  if (not (Hashtbl.mem pp.cs_sites site)) && Hashtbl.length pp.cs_sites < t.max_sites then begin
    match parse_ids t contents with
    | None -> ()
    | Some (base, span, ids) ->
      let bits = Bytes.make ((span + 7) / 8) '\000' in
      List.iter
        (fun v ->
          let o = v - base in
          Bytes.set bits (o lsr 3)
            (Char.chr (Char.code (Bytes.get bits (o lsr 3)) lor (1 lsl (o land 7)))))
        ids;
      Hashtbl.replace pp.cs_sites site
        { ce_ref = pred_ref; ce_contents = contents; ce_bits = bits; ce_base = base;
          ce_span = span };
      t.compiles <- t.compiles + 1;
      Asc_obs.Metrics.inc t.ctr_compiles;
      set_size t
  end
