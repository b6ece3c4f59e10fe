module Cmac = Asc_crypto.Cmac
module Machine = Svm.Machine
module Metrics = Asc_obs.Metrics

(* Per-pid, site-indexed table of precompiled policy verification state,
   over one shared table of the first verified entry per (site, block id).

   Soundness rests on what a compiled entry asserts and what the fast path
   re-checks. An entry is only created from a verification that just
   succeeded on the slow path, so it pins one full encoded byte string E
   with CMAC(key, E) = supplied tag. At a fixed site the *layout* of E —
   field order, the u8 argument-index bytes, every offset — is a pure
   function of the descriptor, and the 16-byte static prefix (number,
   site, descriptor, block low half) plus the block high half are pure
   functions of the fields the fast path compares structurally. So once
   the structural compare passes, the live call's encoded string differs
   from the template only at the dynamic-field offsets; patching those
   offsets with the live values reproduces Encoded.encode of the live
   call byte-for-byte, and resuming the saved chaining state over the
   patched suffix computes the exact MAC the slow path would compute.
   Any structural mismatch, missing entry or tag mismatch falls back to
   the untouched slow path, so denies are byte-identical with the table
   on or off (nothing is ever remembered from a failed verification).

   The live probe in front of [check] decides a memo hit without the
   rebuilt call. Every field of the call the checker would rebuild is a
   register or the 20 header bytes behind a register, so comparing the
   registers at full width and the header bytes in guest memory against
   the memo is comparing exactly what [statics_match], [fields_match] and
   the tag compare would compare, read from the guest instead of from a
   rebuilt record. Equal bytes also mean the rebuild could not have
   denied: the memo's descriptor is authenticated and its headers were
   readable and in bounds. Any difference declines with nothing counted,
   and the caller runs the rebuild and [check] as before.

   An entry asserts CMAC(key, E) = tag for one byte string E, which holds
   whichever pid verified it. So [compile] also files a copy in [facts],
   and a pid with no entry at a site is proved by the live probe against
   that copy. Its own entry is then the one the slow path would have
   compiled: equal live state is the memo's call under the memo's tag.
   The copy is never mutated; only pid entries move their memo. *)

type entry = {
  mutable pe_call : Encoded.t;   (* last verified call at this site (memo) *)
  mutable pe_mac : string;       (* its supplied = verified tag *)
  mutable pe_suffix : string;    (* encoded[16..] of that call (template) *)
  pe_fields : Encoded.dyn_field list;
  pe_state : Cmac.Streaming.saved; (* chaining state over encoded[0..15] *)
}

type t = {
  p_key : Cmac.key;
  p_mac : Bytes.t;             (* the live call MAC, read by [probe] *)
  mutable p_suffix : Bytes.t;  (* [patched_suffix]'s scratch; grows to the longest suffix *)
  sites : (int, entry) Pid_table.t;
  facts : entry Pid_table.Shared.t;  (* first verified entry per (site, block) *)
  hits : Metrics.counter;
  resumes : Metrics.counter;
  misses : Metrics.counter;
  fallbacks : Metrics.counter;
  compiles : Metrics.counter;
}

type verdict =
  | Hit
  | Resumed
  | Declined of Asc_obs.Telemetry.fallback

type probe =
  | Memo of Encoded.t
  | Differs
  | No_entry

let create ~key ~registry () =
  { p_key = key;
    p_mac = Bytes.create Cmac.tag_len;
    p_suffix = Bytes.create 64;
    sites = Pid_table.create registry ~prefix:"precomp";
    facts = Pid_table.Shared.create registry ~prefix:"precomp";
    hits = Metrics.counter registry "precomp.hits" ~help:"precompiled-site memo hits";
    resumes =
      Metrics.counter registry "precomp.resumes"
        ~help:"suffix MACs resumed from a saved chaining state";
    misses = Metrics.counter registry "precomp.misses";
    fallbacks =
      Metrics.counter registry "precomp.fallbacks"
        ~help:"structural or tag mismatches sent to the slow path";
    compiles = Metrics.counter registry "precomp.compiles" }

let drop_pid t pid = Pid_table.drop_pid t.sites pid
let note_saved t n = Pid_table.note_saved t.sites n
let size t = Pid_table.size t.sites
let hits t = Metrics.counter_value t.hits
let resumes t = Metrics.counter_value t.resumes
let misses t = Metrics.counter_value t.misses
let fallbacks t = Metrics.counter_value t.fallbacks
let compiles t = Metrics.counter_value t.compiles
let invalidations t = Pid_table.invalidations t.sites
let cycles_saved t = Pid_table.cycles_saved t.sites
let shared_size t = Pid_table.Shared.size t.facts
let shared_hits t = Pid_table.Shared.hits t.facts
let shared_evictions t = Pid_table.Shared.evictions t.facts

let statics_match entry (call : Encoded.t) =
  let e = entry.pe_call in
  e.Encoded.e_number = call.Encoded.e_number
  && e.Encoded.e_site = call.Encoded.e_site
  && e.Encoded.e_descriptor = call.Encoded.e_descriptor
  && e.Encoded.e_block = call.Encoded.e_block

(* With equal descriptors both calls have the same field shape, so
   comparing each dynamic field against the memo is full structural
   equality of the two records. Raises Not_found on a malformed argument
   list (a checker invariant violation) — the caller falls back. *)
let fields_match entry (call : Encoded.t) =
  let memo = entry.pe_call in
  List.for_all
    (fun f ->
      match f with
      | Encoded.D_const { d_arg; _ } ->
        List.assoc d_arg call.Encoded.e_const_args
        = List.assoc d_arg memo.Encoded.e_const_args
      | Encoded.D_string { d_arg; _ } ->
        List.assoc d_arg call.Encoded.e_string_args
        = List.assoc d_arg memo.Encoded.e_string_args
      | Encoded.D_ext _ -> call.Encoded.e_ext = memo.Encoded.e_ext
      | Encoded.D_control _ -> call.Encoded.e_control = memo.Encoded.e_control)
    entry.pe_fields

(* Rebuild the live call's dynamic suffix by patching the template at the
   precompiled offsets — equals Encoded.encode of the live call from byte
   16 on (every unpatched byte is a function of the statics just checked).
   It is built in the table's scratch buffer, valid until the next call,
   and its length is the template's. *)
let patched_suffix t entry (call : Encoded.t) =
  let n = String.length entry.pe_suffix in
  if Bytes.length t.p_suffix < n then t.p_suffix <- Bytes.create n;
  let b = t.p_suffix in
  Bytes.blit_string entry.pe_suffix 0 b 0 n;
  let base = Encoded.static_prefix_len in
  List.iter
    (fun f ->
      match f with
      | Encoded.D_const { d_off; d_arg } ->
        Encoded.set_u64 b ~pos:(d_off - base) (List.assoc d_arg call.Encoded.e_const_args)
      | Encoded.D_string { d_off; d_arg } ->
        Encoded.set_as_ref b ~pos:(d_off - base) (List.assoc d_arg call.Encoded.e_string_args)
      | Encoded.D_ext { d_off } ->
        (match call.Encoded.e_ext with
         | Some r -> Encoded.set_as_ref b ~pos:(d_off - base) r
         | None -> raise Not_found)
      | Encoded.D_control { d_off } ->
        (match call.Encoded.e_control with
         | Some (r, lbptr) ->
           Encoded.set_as_ref b ~pos:(d_off - base) r;
           Encoded.set_u32 b ~pos:(d_off - base + 24) lbptr
         | None -> raise Not_found))
    entry.pe_fields;
  n

(* A declined probe names its cause with a constant, so declining
   allocates nothing either. *)
let statics_mismatch t =
  Metrics.inc t.fallbacks;
  Declined Asc_obs.Telemetry.F_statics

let check t ~pid ~(call : Encoded.t) ~supplied =
  match Pid_table.find t.sites ~pid call.Encoded.e_site with
  | exception Not_found ->
    Metrics.inc t.misses;
    Declined Asc_obs.Telemetry.F_no_entry
  | e ->
    if not (statics_match e call) then statics_mismatch t
    else begin
      match
        if fields_match e call && Cmac.equal_tags e.pe_mac supplied then `Hit
        else begin
          let n = patched_suffix t e call in
          let st = Cmac.Streaming.resume t.p_key e.pe_state in
          Cmac.Streaming.update st t.p_suffix ~pos:0 ~len:n;
          if Cmac.equal_tags (Cmac.Streaming.final st) supplied then `Resumed n
          else `Mismatch
        end
      with
      | `Hit ->
        Metrics.inc t.hits;
        Hit
      | `Resumed n ->
        (* a second valid (call, tag) pair at this site: move the memo *)
        e.pe_call <- call;
        e.pe_mac <- supplied;
        e.pe_suffix <- Bytes.sub_string t.p_suffix 0 n;
        Metrics.inc t.resumes;
        Resumed
      | `Mismatch ->
        Metrics.inc t.fallbacks;
        Declined Asc_obs.Telemetry.F_tag
      | exception Not_found ->
        (* malformed argument list during field compare/patch — a shape
           problem, not a tag problem *)
        statics_mismatch t
    end

(* The live probe. Top-level functions over the memo's own lists, not
   closures: a hit allocates only the [Memo] it returns. *)

(* [ptr] names an authenticated string whose header — the u32 length,
   then the tag — is the 20 bytes behind it; [r] is the memo's reference. *)
let header_live m ~ptr (r : Encoded.as_ref) =
  ptr = r.Encoded.as_addr
  && begin
    let hdr = ptr - Auth_string.header_size in
    Machine.word_ok m hdr
    && Machine.word_at m hdr land 0xffff_ffff = r.Encoded.as_len
    && Machine.mem_equal m ~addr:(hdr + 4) r.Encoded.as_mac
  end

let rec consts_live (regs : int array) = function
  | [] -> true
  | (i, v) :: rest -> regs.(i + 1) = v && consts_live regs rest

let rec strings_live m = function
  | [] -> true
  | (i, r) :: rest -> header_live m ~ptr:m.Machine.regs.(i + 1) r && strings_live m rest

let live_matches t m ~number (e : entry) =
  let c = e.pe_call and regs = m.Machine.regs in
  number = c.Encoded.e_number
  && regs.(7) = c.Encoded.e_descriptor
  && regs.(8) = c.Encoded.e_block
  && consts_live regs c.Encoded.e_const_args
  && strings_live m c.Encoded.e_string_args
  && (match c.Encoded.e_ext with
      | None -> true
      | Some r -> header_live m ~ptr:regs.(14) r)
  && (match c.Encoded.e_control with
      | None -> true
      | Some (r, lbptr) -> regs.(10) = lbptr && header_live m ~ptr:regs.(9) r)
  && Machine.read_into m ~addr:regs.(11) ~buf:t.p_mac ~pos:0 ~len:Cmac.tag_len
  && Cmac.equal_tags (Bytes.unsafe_to_string t.p_mac) e.pe_mac

let probe t ~m ~pid ~site ~number =
  match Pid_table.find t.sites ~pid site with
  | exception Not_found -> No_entry
  | e ->
    if live_matches t m ~number e then begin
      Metrics.inc t.hits;
      Memo e.pe_call
    end
    else Differs

(* A copy, so that a resume moving one entry's memo leaves the other as
   it was. *)
let copy e = { e with pe_call = e.pe_call }

let probe_shared t ~m ~pid ~site ~number =
  match Pid_table.Shared.find t.facts ~site ~block:m.Machine.regs.(8) with
  | exception Not_found -> None
  | f ->
    if live_matches t m ~number f then begin
      (* [pid]'s entry, counted as the slow path's miss and compile *)
      Pid_table.add t.sites ~pid site (copy f);
      Metrics.inc t.misses;
      Metrics.inc t.compiles;
      Pid_table.Shared.note_hit t.facts;
      Some f.pe_call
    end
    else None

let compile t ~pid ~(call : Encoded.t) ~encoded ~mac =
  let len = String.length encoded in
  let site = call.Encoded.e_site in
  if len > Encoded.static_prefix_len && not (Pid_table.mem t.sites ~pid site) then begin
    let st = Cmac.Streaming.init t.p_key in
    Cmac.Streaming.update st (Bytes.unsafe_of_string encoded) ~pos:0 ~len:Encoded.static_prefix_len;
    let e =
      { pe_call = call;
        pe_mac = mac;
        pe_suffix = String.sub encoded Encoded.static_prefix_len (len - Encoded.static_prefix_len);
        pe_fields = Encoded.dyn_fields call.Encoded.e_descriptor;
        pe_state = Cmac.Streaming.save st }
    in
    Pid_table.add t.sites ~pid site e;
    Pid_table.Shared.add t.facts ~site ~block:call.Encoded.e_block (copy e);
    Metrics.inc t.compiles
  end
