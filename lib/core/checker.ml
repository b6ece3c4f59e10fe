open Svm
open Oskernel
module Cmac = Asc_crypto.Cmac

(* A structured verification failure: which step of the pipeline refused
   the call, the human-readable detail, and — when the failure was a MAC
   comparison — hex prefixes of both sides, so the audit trail can show
   *what* disagreed rather than only that something did. *)
type fail = {
  f_step : Violation.step;
  f_reason : string;
  f_expected : string option;  (* hex prefix of the MAC the checker computed *)
  f_got : string option;       (* hex prefix of the MAC the process supplied *)
}

exception Deny of fail

(* A deny's reason is built by concatenation, not with a format: a
   tampered call is denied on the trap path, where formatting a reason and
   two MAC prefixes takes the host time of several first visits. [hex]
   and [quoted] render exactly what [%x] and [%S] would. *)
let deny step reason =
  raise (Deny { f_step = step; f_reason = reason; f_expected = None; f_got = None })

let hex_digits = "0123456789abcdef"

let mac_prefix s =
  let n = min 8 (String.length s) in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) hex_digits.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

let deny_mac step ~expected ~got reason =
  raise
    (Deny
       { f_step = step;
         f_reason = reason;
         f_expected = Some (mac_prefix expected);
         f_got = Some (mac_prefix got) })

(* the int's 63 bits as unsigned hex, like [%x] *)
let rec hex n =
  let digit = String.make 1 hex_digits.[n land 15] in
  if n lsr 4 = 0 then digit else hex (n lsr 4) ^ digit

let quoted s = "\"" ^ String.escaped s ^ "\""

(* The verification step being charged; doubles as the metrics-counter
   selector. *)
type step =
  | Call_mac
  | String_mac
  | Control_flow
  | Ext

(* Per-verification-step cycle attribution (§3.4 / Table 4): every cycle
   the checker charges to the machine is also credited to exactly one step
   counter, so the steps always sum to [steps.st_total]. *)
type steps = {
  st_call_mac : Asc_obs.Metrics.counter;      (* step 1: rebuild + call-MAC *)
  st_string_mac : Asc_obs.Metrics.counter;    (* step 2: authenticated strings *)
  st_control_flow : Asc_obs.Metrics.counter;  (* step 3: predset + lbMAC checker *)
  st_ext : Asc_obs.Metrics.counter;           (* §5 value sets and patterns *)
  st_total : Asc_obs.Metrics.counter;
  st_checked : Asc_obs.Metrics.counter;       (* calls that passed every step *)
  (* Host minor-words attribution — the memory analogue of the cycle
     decomposition. Each step's work runs inside an alloc region that
     measures the [Gc.minor_words] delta across it, so every measured word
     is credited to exactly one step and the four verification steps sum
     to [sa_total]. The telemetry plane's own recording allocation is kept
     in its own counter, outside the step sum, mirroring [st_total]'s
     verification-only semantics. *)
  sa_call_mac : Asc_obs.Metrics.counter;
  sa_string_mac : Asc_obs.Metrics.counter;
  sa_control_flow : Asc_obs.Metrics.counter;
  sa_ext : Asc_obs.Metrics.counter;
  sa_telemetry : Asc_obs.Metrics.counter;
  sa_total : Asc_obs.Metrics.counter;
}

let steps_of registry =
  { st_call_mac = Asc_obs.Metrics.counter registry "checker.cycles.call_mac";
    st_string_mac = Asc_obs.Metrics.counter registry "checker.cycles.string_mac";
    st_control_flow = Asc_obs.Metrics.counter registry "checker.cycles.control_flow";
    st_ext = Asc_obs.Metrics.counter registry "checker.cycles.ext";
    st_total = Asc_obs.Metrics.counter registry "checker.cycles.total";
    st_checked = Asc_obs.Metrics.counter registry "checker.calls_verified";
    sa_call_mac = Asc_obs.Metrics.counter registry "checker.alloc.call_mac";
    sa_string_mac = Asc_obs.Metrics.counter registry "checker.alloc.string_mac";
    sa_control_flow = Asc_obs.Metrics.counter registry "checker.alloc.control_flow";
    sa_ext = Asc_obs.Metrics.counter registry "checker.alloc.ext";
    sa_telemetry = Asc_obs.Metrics.counter registry "checker.alloc.telemetry";
    sa_total = Asc_obs.Metrics.counter registry "checker.alloc.total" }

let step_counter steps = function
  | Call_mac -> steps.st_call_mac
  | String_mac -> steps.st_string_mac
  | Control_flow -> steps.st_control_flow
  | Ext -> steps.st_ext

let step_alloc_counter steps = function
  | Call_mac -> steps.sa_call_mac
  | String_mac -> steps.sa_string_mac
  | Control_flow -> steps.sa_control_flow
  | Ext -> steps.sa_ext

let charge (m : Machine.t) steps step n =
  m.cycles <- m.cycles + n;
  Asc_obs.Metrics.add (step_counter steps step) n;
  Asc_obs.Metrics.add steps.st_total n

(* Credits the host minor words allocated since [a0] to [step]'s alloc
   counter: the end of a step region, which [Checker.pre] opens by reading
   the counter. *)
let end_region steps step a0 =
  let d = Asc_obs.Profile.minor_words () - a0 in
  if d > 0 then begin
    Asc_obs.Metrics.add (step_alloc_counter steps step) d;
    Asc_obs.Metrics.add steps.sa_total d
  end

(* charging-step → violation-step: the charge attribution is 4-way (the
   Table 4 decomposition) while violations name the finer-grained cause *)
let vstep_of = function
  | Call_mac -> Violation.Call_mac
  | String_mac -> Violation.String_mac
  | Control_flow -> Violation.Control_flow
  | Ext -> Violation.Ext

let read_mac m addr =
  match Machine.read_mem m ~addr ~len:16 with
  | Some s -> s
  | None -> deny Violation.Call_mac ("call MAC pointer 0x" ^ hex addr ^ " unreadable")

(* Which authenticated string a deny message names: argument [i] for
   [i >= 0], or one of the two non-argument strings. An immediate int, so
   the allow path builds no label; [as_label] renders it on deny only. *)
let extension_block = -1
let predecessor_set = -2

let as_label = function
  | -1 -> "extension block"
  | -2 -> "predecessor set"
  | i -> "argument " ^ string_of_int i

let read_as_header m ~ptr what =
  match Auth_string.read_header (Machine.read_byte m) ~ptr with
  | Some (len, mac) -> { Encoded.as_addr = ptr; as_len = len; as_mac = mac }
  | None ->
    deny Violation.Call_mac
      (as_label what ^ ": bad authenticated-string header at 0x" ^ hex ptr)

(* The deployed fast path: the three layers {!monitor} arms as one unit. *)
type fastpath = {
  vcache : Vcache.t;
  precomp : Precomp.t;
  cfpre : Cfpre.t;
}

let fastpath ~key kernel =
  let registry = Kernel.metrics kernel in
  { vcache = Vcache.create ~registry ();
    precomp = Precomp.create ~key ~registry ();
    cfpre = Cfpre.create ~registry () }

(* The monitor's per-trap scratch, reused by every trap since the kernel
   runs one at a time: step 1's resolution, reported as the allowed call's
   telemetry reason; the call's control-flow resolution, reported to
   telemetry on the allow and deny paths alike; and the lbMAC chain step's
   16-byte buffers — the policy-state block being MAC'd, the freshly
   computed tag, and the tag read back from guest memory. Reusing them is
   what takes the fast path's host allocation toward zero.

   The last three fields memo the last policy state the fast path wrote:
   the counter, the lastBlock and the tag, with
   [last_tag = CMAC_k(last_counter || last_block)] computed by the kernel
   itself. That is a fact about the key, not about a pid, so one memo per
   monitor serves every process; [last_counter] starts at -1, which no
   counter equals. [last_tag] is its own buffer: [tag] is overwritten by
   the verify on a memo miss, and a deny may follow. *)
type scratch = {
  mutable reason : Asc_obs.Telemetry.reason;
  mutable cf : Asc_obs.Telemetry.cf_reason;
  state : Bytes.t;
  tag : Bytes.t;
  read : Bytes.t;
  mutable last_counter : int;
  mutable last_block : int;
  last_tag : Bytes.t;
}

(* A vcache hit replaces the modeled CMAC cycles with the (much cheaper)
   hit cost, still charged to the same step counter so the Table 4
   decomposition keeps summing; the skipped cycles feed the cache's
   cycles-saved gauge. The miss path is the reference checker's, including
   what it denies and how; only a successful verification is remembered. *)
let charge_vcache_hit m steps step f len =
  let hit = Cost_model.vcache_hit_cost len in
  charge m steps step hit;
  Vcache.note_saved f.vcache (Cost_model.mac_cost len - hit)

let verify_as m steps step ~fast ~pid key (r : Encoded.as_ref) what =
  match Machine.read_mem m ~addr:r.as_addr ~len:r.as_len with
  | None -> deny (vstep_of step) (as_label what ^ ": string contents unreadable")
  | Some contents ->
    (* sound to cache: the entry carries the full contents — every byte
       the string MAC covers — so tampered bytes or a tampered tag miss *)
    (match fast with
     | Some f when Vcache.check f.vcache ~pid ~bytes:contents ~mac:r.as_mac ->
       charge_vcache_hit m steps step f r.as_len
     | _ ->
       charge m steps step (Cost_model.mac_cost r.as_len);
       let expect = Auth_string.mac_of key contents in
       if not (Cmac.equal_tags expect r.as_mac) then
         deny_mac (vstep_of step) ~expected:expect ~got:r.as_mac
           (as_label what ^ ": string authentication failed");
       (match fast with
        | Some f -> Vcache.remember f.vcache ~pid ~bytes:contents ~mac:r.as_mac
        | None -> ()));
    contents

(* parse a verified §5 extension block: sequence of
   [u8 argidx][u8 kind][u8 n][payload] entries *)
let parse_ext contents =
  let n = String.length contents in
  let byte i = Char.code contents.[i] in
  let rec go i acc =
    if i >= n then List.rev acc
    else if i + 3 > n then deny Violation.Ext "malformed extension block"
    else begin
      let argi = byte i and kind = byte (i + 1) and count = byte (i + 2) in
      match kind with
      | 1 ->
        let need = 8 * count in
        if i + 3 + need > n then deny Violation.Ext "malformed extension set";
        let vs =
          List.init count (fun k ->
              let base = i + 3 + (8 * k) in
              let v = ref 0 in
              for j = 7 downto 0 do
                v := (!v lsl 8) lor byte (base + j)
              done;
              !v)
        in
        go (i + 3 + need) ((argi, `Set vs) :: acc)
      | 2 ->
        if i + 3 + count > n then deny Violation.Ext "malformed extension pattern";
        go (i + 3 + count) ((argi, `Pattern (String.sub contents (i + 3) count)) :: acc)
      | k -> deny Violation.Ext ("unknown extension kind " ^ string_of_int k)
    end
  in
  go 0 []

(* Step 1 reference path: serialize the encoded call and check its CMAC
   against the supplied tag. Returns the encoded string for Precomp. *)
let call_mac_slow m steps key (call : Encoded.t) ~supplied =
  let encoded = Encoded.encode call in
  charge m steps Call_mac (Cost_model.mac_cost (String.length encoded));
  let call_mac = Cmac.mac key encoded in
  if not (Cmac.equal_tags call_mac supplied) then
    deny_mac Violation.Call_mac ~expected:call_mac ~got:supplied "call MAC mismatch";
  encoded

(* Step 1's rebuild: the encoded call as the live registers and the
   authenticated-string headers they point at describe it, denying an
   unauthenticated descriptor or an unreadable header. *)
let rebuild_call m ~site ~number =
  let r i = m.Machine.regs.(i) in
  let descriptor = r 7 in
  if not (Descriptor.is_authenticated descriptor) then
    deny Violation.Unauthenticated "unauthenticated system call";
  let const_args = List.map (fun i -> (i, r (i + 1))) (Descriptor.const_args descriptor) in
  let string_args =
    List.map (fun i -> (i, read_as_header m ~ptr:(r (i + 1)) i)) (Descriptor.string_args descriptor)
  in
  let ext =
    if Descriptor.has_ext descriptor then Some (read_as_header m ~ptr:(r 14) extension_block)
    else None
  in
  let control =
    if Descriptor.has_control_flow descriptor then
      Some (read_as_header m ~ptr:(r 9) predecessor_set, r 10)
    else None
  in
  { Encoded.e_number = number;
    e_site = site;
    e_descriptor = descriptor;
    e_block = r 8;
    e_const_args = const_args;
    e_string_args = string_args;
    e_ext = ext;
    e_control = control }

(* A call MAC precomp proved is charged [cost] in place of the full CMAC,
   into the same call-MAC counter; the difference feeds precomp's
   cycles-saved gauge. *)
let charge_precomp m steps pc ~descriptor cost =
  charge m steps Call_mac cost;
  Precomp.note_saved pc (Cost_model.mac_cost (Encoded.encoded_length descriptor) - cost)

let precomp_suffix_len descriptor = Encoded.encoded_length descriptor - Encoded.static_prefix_len

(* Step 1 when the live state proved nothing: rebuild the call, and let
   [Precomp.check] prove its MAC by memo equality or by resuming the
   saved chaining state over the dynamic suffix. A declined check charges
   nothing: the reference CMAC decides, compiles the site, and the reason
   records why the table declined. *)
let call_mac_rebuild ~m ~steps ~key ~sc pc (p : Process.t) ~site ~number =
  let call = rebuild_call m ~site ~number in
  let supplied = read_mac m m.Machine.regs.(11) in
  let descriptor = call.Encoded.e_descriptor in
  (match Precomp.check pc ~pid:p.pid ~call ~supplied with
   | Precomp.Hit ->
     charge_precomp m steps pc ~descriptor
       (Cost_model.precomp_hit_cost (precomp_suffix_len descriptor));
     sc.reason <- Asc_obs.Telemetry.Precomp_hit
   | Precomp.Resumed ->
     charge_precomp m steps pc ~descriptor
       (Cost_model.precomp_lookup_cost + Cost_model.mac_resume_cost (precomp_suffix_len descriptor));
     sc.reason <- Asc_obs.Telemetry.Precomp_resumed
   | Precomp.Declined cause ->
     let encoded = call_mac_slow m steps key call ~supplied in
     Precomp.compile pc ~pid:p.pid ~call ~encoded ~mac:supplied;
     sc.reason <- Asc_obs.Telemetry.Precomp_fallback cause);
  call

(* Step 1: check the call MAC and return the call whose references steps
   2 and 3 verify, with the resolution — the call's telemetry reason — in
   [sc.reason]. With the fast path armed, the live probe goes first: when
   the registers and header bytes equal the site's memo, the memo is the
   call and nothing is rebuilt. When the pid has no entry at the site, the
   same compare runs against the shared fact another process verified; a
   fact changes only the host's work, and the call is charged, counted and
   labelled as the slow path. Otherwise the call is rebuilt
   ([call_mac_rebuild]). *)
let call_mac_step ~m ~steps ~fast ~key ~sc (p : Process.t) ~site ~number =
  charge m steps Call_mac Cost_model.check_fixed;
  match fast with
  | None ->
    let call = rebuild_call m ~site ~number in
    ignore (call_mac_slow m steps key call ~supplied:(read_mac m m.Machine.regs.(11)));
    sc.reason <- Asc_obs.Telemetry.Slow_path;
    call
  | Some { precomp = pc; _ } ->
    (match Precomp.probe pc ~m ~pid:p.pid ~site ~number with
     | Precomp.Memo memo ->
       let descriptor = memo.Encoded.e_descriptor in
       charge_precomp m steps pc ~descriptor
         (Cost_model.precomp_hit_cost (precomp_suffix_len descriptor));
       sc.reason <- Asc_obs.Telemetry.Precomp_hit;
       memo
     | Precomp.Differs -> call_mac_rebuild ~m ~steps ~key ~sc pc p ~site ~number
     | Precomp.No_entry ->
       (match Precomp.probe_shared pc ~m ~pid:p.pid ~site ~number with
        | Some memo ->
          (* the slow path's full CMAC: guests read modeled time, which
             must not reveal which sites another process has run *)
          charge m steps Call_mac
            (Cost_model.mac_cost (Encoded.encoded_length memo.Encoded.e_descriptor));
          sc.reason <- Asc_obs.Telemetry.Precomp_fallback Asc_obs.Telemetry.F_no_entry;
          memo
        | None -> call_mac_rebuild ~m ~steps ~key ~sc pc p ~site ~number))

let cf_violation ~block ~last_block =
  "control-flow violation: block " ^ string_of_int block ^ " may not follow block "
  ^ string_of_int last_block

(* Step 3 reference path: verify the predecessor-set authenticated
   string (vcache-aided), check the nonce-fresh lbMAC over the policy
   state, decide membership from the live set bytes, then advance the
   counter and rewrite lastBlock/lbMAC.
   A top-level function (not a per-call closure) so the steady-state fast
   path below allocates nothing for the code it skips. On full success the
   site's bitset is compiled so the next trap is one load+test. *)
let control_flow_slow ~m ~steps ~fast ~key (p : Process.t) ~site
    ~(pred_ref : Encoded.as_ref) ~lbp ~block =
  let pred_contents =
    verify_as m steps Control_flow ~fast ~pid:p.pid key pred_ref predecessor_set
  in
  let last_block =
    match Machine.read_word m lbp with
    | Some v -> v
    | None -> deny Violation.Control_flow "policy state unreadable"
  in
  let lb_mac =
    match Machine.read_mem m ~addr:(lbp + 8) ~len:16 with
    | Some s -> s
    | None -> deny Violation.Control_flow "policy state MAC unreadable"
  in
  charge m steps Control_flow (Cost_model.mac_cost 16);
  let expect = Cmac.mac key (Encoded.state_bytes ~counter:p.counter ~last_block) in
  if not (Cmac.equal_tags expect lb_mac) then
    deny_mac Violation.Control_flow ~expected:expect ~got:lb_mac "policy state corrupted";
  if not (Encoded.predset_mem pred_contents last_block) then
    deny Violation.Control_flow (cf_violation ~block ~last_block);
  (* update: counter++ in kernel space, lastBlock/lbMAC in the application *)
  p.counter <- p.counter + 1;
  charge m steps Control_flow (Cost_model.mac_cost 16);
  let new_mac = Cmac.mac key (Encoded.state_bytes ~counter:p.counter ~last_block:block) in
  if not (Machine.write_word m lbp block && Machine.write_mem m ~addr:(lbp + 8) new_mac)
  then deny Violation.Control_flow "policy state unwritable";
  (* the whole step just succeeded from the live bytes: compile the
     site's bitset so the next trap is one load+test *)
  match fast with
  | Some f -> Cfpre.compile f.cfpre ~pid:p.pid ~site ~block ~pred_ref ~contents:pred_contents
  | None -> ()

(* One lbMAC of the chain step, charged [cost] in place of the full
   single-block CMAC; the difference feeds cfpre's cycles-saved gauge at
   once, so a deny later in the step leaves the savings accounted. *)
let charge_lbmac m steps cfpre cost =
  charge m steps Control_flow cost;
  Cfpre.note_saved cfpre (Cost_model.mac_cost 16 - cost)

(* The lbMAC chain step behind a compiled bitset: verify the policy state
   at [lbp], decide membership with one load+test, advance the counter and
   write the fresh lastBlock and tag. [cost] is charged for the verify and
   again for the refresh. The verify is charged in full either way:
   lowering the modeled charge waits on a refit of the cost model, and a
   guest's modeled time must not reveal whether another process trapped
   in between. A top-level function, so the hit path allocates nothing
   for it. *)
let chain_step ~m ~steps ~key ~sc ~cfpre (p : Process.t) entry ~lbp ~block ~cost =
  if not (Machine.word_ok m lbp) then deny Violation.Control_flow "policy state unreadable";
  let last_block = Machine.word_at m lbp in
  if not (Machine.read_into m ~addr:(lbp + 8) ~buf:sc.read ~pos:0 ~len:16) then
    deny Violation.Control_flow "policy state MAC unreadable";
  charge_lbmac m steps cfpre cost;
  (* When the kernel-held counter, the live lastBlock and the live lbMAC
     all equal the memo of the monitor's last write, the tag is one the
     kernel computed over exactly this state, so the MAC check must pass
     and its AES block is skipped. Any other state — a rollback, a replay
     from another process, a flipped byte — takes the AES check and its
     deny. *)
  if
    not
      (p.counter = sc.last_counter
       && last_block = sc.last_block
       && Cmac.equal_tags_bytes sc.read sc.last_tag)
  then begin
    Cfpre.state_into sc.state ~counter:p.counter ~last_block;
    Cmac.mac_block_into key sc.state ~dst:sc.tag;
    if not (Cmac.equal_tags_bytes sc.tag sc.read) then
      deny_mac Violation.Control_flow
        ~expected:(Bytes.to_string sc.tag)
        ~got:(Bytes.to_string sc.read)
        "policy state corrupted"
  end;
  if not (Cfpre.member entry last_block) then
    deny Violation.Control_flow (cf_violation ~block ~last_block);
  (* update: counter++ in kernel space, lastBlock/lbMAC in the
     application *)
  p.counter <- p.counter + 1;
  charge_lbmac m steps cfpre cost;
  Cfpre.state_into sc.state ~counter:p.counter ~last_block:block;
  Cmac.mac_block_into key sc.state ~dst:sc.tag;
  if
    not
      (Machine.word_ok m lbp && Machine.write_from m ~addr:(lbp + 8) ~buf:sc.tag ~pos:0 ~len:16)
  then deny Violation.Control_flow "policy state unwritable";
  Machine.set_word m lbp block;
  sc.last_counter <- p.counter;
  sc.last_block <- block;
  Bytes.blit sc.tag 0 sc.last_tag 0 16

(* Step 3 on a per-pid miss that a shared fact proved: the live
   predecessor reference and bytes equal a set another process verified,
   so its string MAC would verify. The host runs the fast path's chain
   step against the fact's bitset; the modeled charges are the slow
   path's, in its order: the pid's vcache probe on the set (a hit's cost,
   or the full string MAC, and the entry the slow path would remember),
   then two full lbMACs. Only when the whole step succeeds does the fact
   become the pid's entry. *)
let control_flow_shared ~m ~steps ~f ~key ~sc (p : Process.t) ~site
    ~(pred_ref : Encoded.as_ref) ~lbp ~block entry =
  let contents = Cfpre.contents entry in
  if Vcache.check f.vcache ~pid:p.pid ~bytes:contents ~mac:pred_ref.as_mac then
    charge_vcache_hit m steps Control_flow f pred_ref.as_len
  else begin
    charge m steps Control_flow (Cost_model.mac_cost pred_ref.as_len);
    Vcache.remember f.vcache ~pid:p.pid ~bytes:contents ~mac:pred_ref.as_mac
  end;
  chain_step ~m ~steps ~key ~sc ~cfpre:f.cfpre p entry ~lbp ~block ~cost:(Cost_model.mac_cost 16);
  Cfpre.adopt f.cfpre ~pid:p.pid ~site entry

(* Step 2: each string argument's contents, verified, in argument order
   (the first that fails denies). *)
let rec verify_strings m steps ~fast ~pid key = function
  | [] -> []
  | (i, ar) :: rest ->
    let contents = verify_as m steps String_mac ~fast ~pid key ar i in
    (i, contents) :: verify_strings m steps ~fast ~pid key rest

(* Step 3. The predecessor set is content-stable (cacheable like any
   authenticated string); the lbMAC is nonce-fresh by design — the
   kernel-held counter changes every call — so its fresh tag is computed
   and written on every call. Only its verify can be decided by the
   monitor's memo of its own last write. The match is deliberately flat
   (no intermediate option/tuple): the hit branch's whole host-allocation
   budget is Cfpre.check's [Hit] block. *)
let control_flow_step ~m ~steps ~fast ~key ~sc (p : Process.t) ~site ~pred_ref ~lbp ~block =
  match fast with
  | Some f ->
    (match Cfpre.check f.cfpre ~m ~pid:p.pid ~site ~pred_ref with
     | Cfpre.Hit entry ->
       (* Bitset fast path: the live reference and the live guest bytes
          equal the slow-path-verified ones (Cfpre.check just compared
          both), so the set's string MAC would necessarily verify — the
          predecessor check is one load+test in the compiled bitset. The
          lbMAC is still checked, and its fresh tag computed and written,
          on this very call (§3.4 nonce-freshness is untouched). *)
       sc.cf <- Asc_obs.Telemetry.Cf_hit;
       let len = Cfpre.contents_length entry in
       let hit = Cost_model.cfpre_hit_cost len in
       charge m steps Control_flow hit;
       Cfpre.note_saved f.cfpre (Cost_model.mac_cost len - hit);
       chain_step ~m ~steps ~key ~sc ~cfpre:f.cfpre p entry ~lbp ~block
         ~cost:Cost_model.lbmac_chain_cost
     | Cfpre.Declined Asc_obs.Telemetry.Cf_slow ->
       (* the pid has no entry at the site: try the shared fact *)
       sc.cf <- Asc_obs.Telemetry.Cf_slow;
       (match Cfpre.check_shared f.cfpre ~m ~site ~block ~pred_ref with
        | Some entry ->
          control_flow_shared ~m ~steps ~f ~key ~sc p ~site ~pred_ref ~lbp ~block entry
        | None -> control_flow_slow ~m ~steps ~fast ~key p ~site ~pred_ref ~lbp ~block)
     | Cfpre.Declined cause ->
       sc.cf <- cause;
       control_flow_slow ~m ~steps ~fast ~key p ~site ~pred_ref ~lbp ~block)
  | None -> control_flow_slow ~m ~steps ~fast ~key p ~site ~pred_ref ~lbp ~block

(* §5 extensions: allowed-value sets and argument patterns. *)
let check_ext m steps contents =
  List.iter
    (fun (argi, e) ->
      let v = m.Machine.regs.(argi + 1) in
      match e with
      | `Set vs ->
        if not (List.mem v vs) then
          deny Violation.Ext
            ("argument " ^ string_of_int argi ^ " value " ^ string_of_int v ^ " not in allowed set")
      | `Pattern pat ->
        (match Machine.read_cstring m ~addr:v ~max:4096 with
         | None ->
           deny Violation.Pattern
             ("argument " ^ string_of_int argi ^ ": unreadable string for pattern check")
         | Some s ->
           (match Patterns.compile pat with
            | Error e ->
              deny Violation.Pattern ("argument " ^ string_of_int argi ^ ": bad pattern (" ^ e ^ ")")
            | Ok cp ->
              charge m steps Ext (Patterns.match_cost cp s);
              if not (Patterns.matches cp s) then
                deny Violation.Pattern
                  ("argument " ^ string_of_int argi ^ ": " ^ quoted s ^ " does not match pattern "
                 ^ quoted pat))))
    (parse_ext contents)

(* Each step's work is one alloc region: [a0] read before it, and
   [end_region] on its way out, normal or [Deny]. Matches rather than a
   bracketing function, so a trap allocates no closure for them. *)
let pre ~kernel ~key ~normalize_paths ~fast ~scratch:sc ~steps (p : Process.t) ~site ~number =
  let m = p.machine in
  (* --- step 1: check the call MAC. The region returns the call whose
     references the later steps need, so the allocation of a rebuild is
     attributed here, where it happens. --- *)
  let a0 = Asc_obs.Profile.minor_words () in
  let call =
    match call_mac_step ~m ~steps ~fast ~key ~sc p ~site ~number with
    | call ->
      end_region steps Call_mac a0;
      call
    | exception e ->
      end_region steps Call_mac a0;
      raise e
  in
  let block = call.Encoded.e_block in
  (* --- step 2: verify authenticated string contents --- *)
  let verified_strings =
    match call.Encoded.e_string_args with
    | [] -> []
    | args ->
      let a0 = Asc_obs.Profile.minor_words () in
      (match verify_strings m steps ~fast ~pid:p.pid key args with
       | v ->
         end_region steps String_mac a0;
         v
       | exception e ->
         end_region steps String_mac a0;
         raise e)
  in
  let ext_contents =
    match call.Encoded.e_ext with
    | None -> None
    | Some ar ->
      let a0 = Asc_obs.Profile.minor_words () in
      (match verify_as m steps Ext ~fast ~pid:p.pid key ar extension_block with
       | contents ->
         let v = Some contents in
         end_region steps Ext a0;
         v
       | exception e ->
         end_region steps Ext a0;
         raise e)
  in
  (* --- step 3: control-flow policy --- *)
  (match call.Encoded.e_control with
   | None -> ()
   | Some (pred_ref, lbp) ->
     let a0 = Asc_obs.Profile.minor_words () in
     (match control_flow_step ~m ~steps ~fast ~key ~sc p ~site ~pred_ref ~lbp ~block with
      | () -> end_region steps Control_flow a0
      | exception e ->
        end_region steps Control_flow a0;
        raise e));
  (* --- §5 extensions --- *)
  (match ext_contents with
   | None -> ()
   | Some contents ->
     let a0 = Asc_obs.Profile.minor_words () in
     (match check_ext m steps contents with
      | () -> end_region steps Ext a0
      | exception e ->
        end_region steps Ext a0;
        raise e));
  (* --- §5.4: in-kernel file name normalization --- *)
  if normalize_paths then begin
    match Personality.sem_of kernel.Kernel.pers number with
    | None -> ()
    | Some sem ->
      let params = Array.of_list (Syscall_sig.params sem) in
      List.iter
        (fun (i, contents) ->
          if i < Array.length params && params.(i) = Syscall_sig.P_path then begin
            (* AS contents carry the NUL terminator; the pathname is the
               prefix up to it *)
            let path =
              match String.index_opt contents '\000' with
              | Some cut -> String.sub contents 0 cut
              | None -> contents
            in
            match Vfs.normalize kernel.Kernel.vfs ~cwd:p.cwd path with
            | Ok canon when canon <> path ->
              deny Violation.Normalization
                ("path " ^ quoted path ^ " normalizes to " ^ quoted canon
               ^ " (possible symlink attack)")
            | Ok _ | Error _ -> ()
          end)
        verified_strings
  end;
  sc.reason

(* [Some cf] for [Telemetry.record]'s optional [?cf]: each arm is a
   static constant, where [~cf:sc.cf] would allocate the option on every
   call. *)
let some_cf : Asc_obs.Telemetry.cf_reason -> Asc_obs.Telemetry.cf_reason option = function
  | Cf_none -> Some Cf_none
  | Cf_hit -> Some Cf_hit
  | Cf_slow -> Some Cf_slow
  | Cf_fallback_ref -> Some Cf_fallback_ref
  | Cf_fallback_contents -> Some Cf_fallback_contents

(* Records one monitored call: exactly one reason code per call, the
   exhaustiveness invariant the telemetry tests pin. [total0] and [alloc0]
   are the step-cycle total and the minor-word count read at trap entry.
   A top-level function, so a trap builds no closure for it. The
   recording cost is charged to the machine (the kernel spends those
   cycles) but deliberately NOT to the checker.cycles.* step counters: the
   Table 4 decomposition stays verification-only, and the plane's
   self-overhead meter is gauged against it. The same split holds for
   memory: [alloc] below is the words the verification itself allocated,
   while the plane's own recording allocation is measured separately into
   checker.alloc.telemetry. *)
let finish ~kernel ~telemetry ~steps ~sc shard m ~site ~number ~total0 ~alloc0 reason =
  let cycles = Asc_obs.Metrics.counter_value steps.st_total - total0 in
  let alloc = Asc_obs.Profile.minor_words () - alloc0 in
  m.Machine.cycles <- m.Machine.cycles + Cost_model.telemetry_record_cost;
  let ta0 = Asc_obs.Profile.minor_words () in
  Asc_obs.Telemetry.note_self telemetry Cost_model.telemetry_record_cost;
  let sem =
    match Personality.sem_of kernel.Kernel.pers number with
    | Some s -> Syscall.name s
    | None -> "syscall#" ^ string_of_int number
  in
  Asc_obs.Telemetry.record telemetry shard ~site ~sem ~reason ?cf:(some_cf sc.cf) ~cycles ~alloc
    ~now:m.Machine.cycles;
  let td = Asc_obs.Profile.minor_words () - ta0 in
  if td > 0 then Asc_obs.Metrics.add steps.sa_telemetry td

let monitor ~kernel ~key ?(normalize_paths = false) ?vcache ?precomp ?cfpre () =
  let fast =
    match (vcache, precomp, cfpre) with
    | Some vcache, Some precomp, Some cfpre -> Some { vcache; precomp; cfpre }
    | None, None, None -> None
    | _ -> invalid_arg "Checker.monitor: arm vcache, precomp and cfpre together or not at all"
  in
  let steps = steps_of kernel.Kernel.obs in
  (* lifecycle: execve and teardown drop the pid's entries in all three
     layers, which decide its charges; a pid's first entry creates its
     tables. The shared facts hold for any pid and stay. *)
  (match fast with
   | Some f ->
     Kernel.add_lifecycle_hook kernel (function
       | Kernel.Proc_spawn _ -> ()
       | Kernel.Proc_exec { pid } | Kernel.Proc_exit { pid } ->
         Vcache.drop_pid f.vcache pid;
         Precomp.drop_pid f.precomp pid;
         Cfpre.drop_pid f.cfpre pid)
   | None -> ());
  let sc =
    { reason = Asc_obs.Telemetry.Slow_path;
      cf = Asc_obs.Telemetry.Cf_none;
      state = Bytes.create 16;
      tag = Bytes.create 16;
      read = Bytes.create 16;
      last_counter = -1;
      last_block = 0;
      last_tag = Bytes.create 16 }
  in
  let telemetry = Kernel.telemetry kernel in
  { Kernel.monitor_name = "asc-checker";
    pre_syscall =
      (fun p ~site ~number ->
        let m = p.Process.machine in
        let shard = Asc_obs.Telemetry.shard telemetry ~pid:p.Process.pid in
        let total0 = Asc_obs.Metrics.counter_value steps.st_total in
        let alloc0 = Asc_obs.Profile.minor_words () in
        sc.cf <- Asc_obs.Telemetry.Cf_none;
        match
          pre ~kernel ~key ~normalize_paths ~fast ~scratch:sc ~steps p ~site ~number
        with
        | reason ->
          finish ~kernel ~telemetry ~steps ~sc shard m ~site ~number ~total0 ~alloc0 reason;
          Asc_obs.Metrics.inc steps.st_checked;
          Kernel.Allow
        | exception Deny f ->
          finish ~kernel ~telemetry ~steps ~sc shard m ~site ~number ~total0 ~alloc0
            (Asc_obs.Telemetry.Deny (Violation.step_name f.f_step));
          Kernel.Deny_violation
            { Violation.v_step = f.f_step;
              v_site = site;
              v_number = number;
              v_sem = None;
              v_reason = f.f_reason;
              v_expected_mac = f.f_expected;
              v_got_mac = f.f_got });
    post_syscall = Kernel.no_post }

let monitor_with ~kernel ~key ?normalize_paths fast =
  match fast with
  | Some { vcache; precomp; cfpre } ->
    monitor ~kernel ~key ?normalize_paths ~vcache ~precomp ~cfpre ()
  | None -> monitor ~kernel ~key ?normalize_paths ()
