module Cmac = Asc_crypto.Cmac

(* Per-pid, site-indexed table of precompiled policy verification state.

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
   on or off (nothing is ever remembered from a failed verification). *)

type entry = {
  mutable pe_call : Encoded.t;   (* last verified call at this site (memo) *)
  mutable pe_mac : string;       (* its supplied = verified tag *)
  mutable pe_suffix : string;    (* encoded[16..] of that call (template) *)
  pe_fields : Encoded.dyn_field list;
  pe_state : Cmac.Streaming.saved; (* chaining state over encoded[0..15] *)
  pe_len : int;                   (* total encoded length (descriptor-fixed) *)
}

type t = {
  p_key : Cmac.key;
  max_sites : int;                (* per-pid bound on compiled entries *)
  tbl : (int, (int, entry) Hashtbl.t) Hashtbl.t;  (* pid -> site -> entry *)
  mutable hits : int;
  mutable resumes : int;
  mutable misses : int;
  mutable fallbacks : int;
  mutable compiles : int;
  mutable invalidations : int;
  mutable saved : int;
  ctr_hits : Asc_obs.Metrics.counter;
  ctr_resumes : Asc_obs.Metrics.counter;
  ctr_misses : Asc_obs.Metrics.counter;
  ctr_fallbacks : Asc_obs.Metrics.counter;
  ctr_compiles : Asc_obs.Metrics.counter;
  ctr_invalidations : Asc_obs.Metrics.counter;
  g_size : Asc_obs.Metrics.gauge;
  g_saved : Asc_obs.Metrics.gauge;
}

type fallback_cause =
  | Statics_mismatch
  | Tag_mismatch

type verdict =
  | Miss
  | Hit of { suffix_len : int; encoded_len : int }
  | Resumed of { suffix_len : int; encoded_len : int }
  | Fallback of fallback_cause

let create ?(max_sites = 4096) ~key ~registry () =
  if max_sites < 1 then invalid_arg "Precomp.create: max_sites must be >= 1";
  { p_key = key;
    max_sites;
    tbl = Hashtbl.create 16;
    hits = 0;
    resumes = 0;
    misses = 0;
    fallbacks = 0;
    compiles = 0;
    invalidations = 0;
    saved = 0;
    ctr_hits =
      Asc_obs.Metrics.counter registry "precomp.hits" ~help:"precompiled-site memo hits";
    ctr_resumes =
      Asc_obs.Metrics.counter registry "precomp.resumes"
        ~help:"suffix MACs resumed from a saved chaining state";
    ctr_misses = Asc_obs.Metrics.counter registry "precomp.misses";
    ctr_fallbacks =
      Asc_obs.Metrics.counter registry "precomp.fallbacks"
        ~help:"structural or tag mismatches sent to the slow path";
    ctr_compiles = Asc_obs.Metrics.counter registry "precomp.compiles";
    ctr_invalidations =
      Asc_obs.Metrics.counter registry "precomp.invalidations"
        ~help:"entries dropped on spawn / execve / process teardown";
    g_size = Asc_obs.Metrics.gauge registry "precomp.size";
    g_saved =
      Asc_obs.Metrics.gauge registry "precomp.cycles_saved"
        ~help:"modeled CMAC cycles skipped by the precompiled fast path" }

let hits t = t.hits
let resumes t = t.resumes
let misses t = t.misses
let fallbacks t = t.fallbacks
let compiles t = t.compiles
let invalidations t = t.invalidations
let cycles_saved t = t.saved

let size t = Hashtbl.fold (fun _ sites acc -> acc + Hashtbl.length sites) t.tbl 0
let set_size t = Asc_obs.Metrics.set t.g_size (size t)

let note_saved t n =
  t.saved <- t.saved + n;
  Asc_obs.Metrics.set t.g_saved t.saved

let drop_pid_entries t pid =
  match Hashtbl.find_opt t.tbl pid with
  | None -> ()
  | Some sites ->
    let n = Hashtbl.length sites in
    Hashtbl.remove t.tbl pid;
    if n > 0 then begin
      t.invalidations <- t.invalidations + n;
      Asc_obs.Metrics.add t.ctr_invalidations n
    end;
    set_size t

(* exec-time table creation: drop whatever an earlier image compiled for
   this pid and start it with a fresh, empty site index *)
let prepare_pid t pid =
  drop_pid_entries t pid;
  Hashtbl.replace t.tbl pid (Hashtbl.create 16)

let invalidate_pid t pid = drop_pid_entries t pid

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
   16 on (every unpatched byte is a function of the statics just checked). *)
let patched_suffix entry (call : Encoded.t) =
  let b = Bytes.of_string entry.pe_suffix in
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
  b

let check t ~pid ~(call : Encoded.t) ~supplied =
  let entry =
    match Hashtbl.find_opt t.tbl pid with
    | None -> None
    | Some sites -> Hashtbl.find_opt sites call.Encoded.e_site
  in
  match entry with
  | None ->
    t.misses <- t.misses + 1;
    Asc_obs.Metrics.inc t.ctr_misses;
    Miss
  | Some e ->
    let suffix_len = e.pe_len - Encoded.static_prefix_len in
    if not (statics_match e call) then begin
      t.fallbacks <- t.fallbacks + 1;
      Asc_obs.Metrics.inc t.ctr_fallbacks;
      Fallback Statics_mismatch
    end
    else begin
      match
        if fields_match e call && Cmac.equal_tags e.pe_mac supplied then `Hit
        else begin
          let suffix = patched_suffix e call in
          let st = Cmac.Streaming.resume t.p_key e.pe_state in
          Cmac.Streaming.update st suffix ~pos:0 ~len:(Bytes.length suffix);
          if Cmac.equal_tags (Cmac.Streaming.final st) supplied then `Resumed suffix
          else `Mismatch
        end
      with
      | `Hit ->
        t.hits <- t.hits + 1;
        Asc_obs.Metrics.inc t.ctr_hits;
        Hit { suffix_len; encoded_len = e.pe_len }
      | `Resumed suffix ->
        (* a second valid (call, tag) pair at this site: move the memo *)
        e.pe_call <- call;
        e.pe_mac <- supplied;
        e.pe_suffix <- Bytes.to_string suffix;
        t.resumes <- t.resumes + 1;
        Asc_obs.Metrics.inc t.ctr_resumes;
        Resumed { suffix_len; encoded_len = e.pe_len }
      | `Mismatch ->
        t.fallbacks <- t.fallbacks + 1;
        Asc_obs.Metrics.inc t.ctr_fallbacks;
        Fallback Tag_mismatch
      | exception Not_found ->
        (* malformed argument list during field compare/patch — a shape
           problem, not a tag problem *)
        t.fallbacks <- t.fallbacks + 1;
        Asc_obs.Metrics.inc t.ctr_fallbacks;
        Fallback Statics_mismatch
    end

let compile t ~pid ~(call : Encoded.t) ~encoded ~mac =
  let len = String.length encoded in
  if len > Encoded.static_prefix_len then begin
    let sites =
      match Hashtbl.find_opt t.tbl pid with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 16 in
        Hashtbl.replace t.tbl pid s;
        s
    in
    if (not (Hashtbl.mem sites call.Encoded.e_site)) && Hashtbl.length sites < t.max_sites
    then begin
      let st = Cmac.Streaming.init t.p_key in
      Cmac.Streaming.update st
        (Bytes.unsafe_of_string encoded)
        ~pos:0 ~len:Encoded.static_prefix_len;
      let entry =
        { pe_call = call;
          pe_mac = mac;
          pe_suffix =
            String.sub encoded Encoded.static_prefix_len (len - Encoded.static_prefix_len);
          pe_fields = Encoded.dyn_fields call.Encoded.e_descriptor;
          pe_state = Cmac.Streaming.save st;
          pe_len = len }
      in
      Hashtbl.replace sites call.Encoded.e_site entry;
      t.compiles <- t.compiles + 1;
      Asc_obs.Metrics.inc t.ctr_compiles;
      set_size t
    end
  end
