module Cmac = Asc_crypto.Cmac
module Metrics = Asc_obs.Metrics

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
}

type t = {
  p_key : Cmac.key;
  sites : (int, entry) Pid_table.t;
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

let create ~key ~registry () =
  { p_key = key;
    sites = Pid_table.create registry ~prefix:"precomp";
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
          let suffix = patched_suffix e call in
          let st = Cmac.Streaming.resume t.p_key e.pe_state in
          Cmac.Streaming.update st suffix ~pos:0 ~len:(Bytes.length suffix);
          if Cmac.equal_tags (Cmac.Streaming.final st) supplied then `Resumed suffix
          else `Mismatch
        end
      with
      | `Hit ->
        Metrics.inc t.hits;
        Hit
      | `Resumed suffix ->
        (* a second valid (call, tag) pair at this site: move the memo *)
        e.pe_call <- call;
        e.pe_mac <- supplied;
        e.pe_suffix <- Bytes.to_string suffix;
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

let compile t ~pid ~(call : Encoded.t) ~encoded ~mac =
  let len = String.length encoded in
  let site = call.Encoded.e_site in
  if len > Encoded.static_prefix_len && not (Pid_table.mem t.sites ~pid site) then begin
    let st = Cmac.Streaming.init t.p_key in
    Cmac.Streaming.update st (Bytes.unsafe_of_string encoded) ~pos:0 ~len:Encoded.static_prefix_len;
    Pid_table.add t.sites ~pid site
      { pe_call = call;
        pe_mac = mac;
        pe_suffix = String.sub encoded Encoded.static_prefix_len (len - Encoded.static_prefix_len);
        pe_fields = Encoded.dyn_fields call.Encoded.e_descriptor;
        pe_state = Cmac.Streaming.save st };
    Metrics.inc t.compiles
  end
