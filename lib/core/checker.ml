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

let deny step fmt =
  Format.kasprintf
    (fun s -> raise (Deny { f_step = step; f_reason = s; f_expected = None; f_got = None }))
    fmt

let mac_prefix s =
  let n = min 8 (String.length s) in
  String.concat "" (List.init n (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let deny_mac step ~expected ~got fmt =
  Format.kasprintf
    (fun s ->
      raise
        (Deny
           { f_step = step;
             f_reason = s;
             f_expected = Some (mac_prefix expected);
             f_got = Some (mac_prefix got) }))
    fmt

(* The verification step being charged; doubles as the metrics-counter
   selector and (when a profiler is attached) the synthetic frame name. *)
type step =
  | Call_mac
  | String_mac
  | Control_flow
  | Ext

(* Fault injection for the attribution pipeline: inflate one step's cycle
   charges by a percentage. The surcharge flows through [charge], so the
   machine counter, the per-step metrics, the profiler and telemetry all
   see the same inflated number — every "steps sum to total" invariant
   keeps holding while the step visibly regresses. Carried by one
   monitor's [steps], so other kernels in the process are untouched. *)
type cost_injection = step * int

let cost_injection ~step ~pct =
  if pct < 0 then invalid_arg "Checker.cost_injection: pct must be >= 0";
  let step =
    match step with
    | "call_mac" -> Call_mac
    | "string_mac" -> String_mac
    | "control_flow" -> Control_flow
    | "ext" -> Ext
    | other -> invalid_arg (Printf.sprintf "Checker.cost_injection: unknown step %S" other)
  in
  (step, pct)

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
     decomposition. Each step's work runs inside a [step_region] that
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
  st_inject : cost_injection option;  (* this monitor's fault injection *)
}

let steps_of ?inject registry =
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
    sa_total = Asc_obs.Metrics.counter registry "checker.alloc.total";
    st_inject = inject }

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

(* pre-built frames: constant constructors of string literals, so entering
   a region allocates nothing before the region's minor-words mark *)
let step_frame = function
  | Call_mac -> Asc_obs.Profile.Label "<kernel:call_mac>"
  | String_mac -> Asc_obs.Profile.Label "<kernel:string_mac>"
  | Control_flow -> Asc_obs.Profile.Label "<kernel:control_flow>"
  | Ext -> Asc_obs.Profile.Label "<kernel:ext>"

let charge (m : Machine.t) steps step n =
  let n =
    match steps.st_inject with
    | Some (s, pct) when s = step -> n + (n * pct / 100)
    | _ -> n
  in
  m.cycles <- m.cycles + n;
  Asc_obs.Metrics.add (step_counter steps step) n;
  Asc_obs.Metrics.add steps.st_total n;
  (* every charge happens inside the matching [step_region], whose
     <kernel:step> frame is on top of the shadow stack — so verification
     cycles show up in flamegraphs as children of the syscall-site frame *)
  match m.profile with
  | Some p -> Asc_obs.Profile.charge p n
  | None -> ()

(* [step_region m steps step f] brackets one step's work: it pushes the
   step's <kernel:step> profile frame (an allocation sampling point, so
   pending words stay with the site frame) and marks the host minor-words
   counter; on exit — normal or [Deny] — the delta is credited to the
   step's alloc counter and the frame is popped, keeping the shadow stack
   balanced for the deny-time forensic snapshot. *)
let step_region (m : Machine.t) steps step f =
  (match m.Machine.profile with
   | Some p -> Asc_obs.Profile.enter p (step_frame step)
   | None -> ());
  let a0 = Asc_obs.Profile.minor_words () in
  let finish () =
    let d = Asc_obs.Profile.minor_words () - a0 in
    if d > 0 then begin
      Asc_obs.Metrics.add (step_alloc_counter steps step) d;
      Asc_obs.Metrics.add steps.sa_total d
    end;
    match m.Machine.profile with
    | Some p -> Asc_obs.Profile.leave p
    | None -> ()
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

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
  | None -> deny Violation.Call_mac "call MAC pointer 0x%x unreadable" addr

(* Which authenticated string a deny message names: argument [i] for
   [i >= 0], or one of the two non-argument strings. An immediate int, so
   the allow path builds no label; [as_label] formats it on deny only. *)
let extension_block = -1
let predecessor_set = -2

let as_label = function
  | -1 -> "extension block"
  | -2 -> "predecessor set"
  | i -> Printf.sprintf "argument %d" i

let read_as_header m ~ptr what =
  match Auth_string.read_header (Machine.read_byte m) ~ptr with
  | Some (len, mac) -> { Encoded.as_addr = ptr; as_len = len; as_mac = mac }
  | None ->
    deny Violation.Call_mac "%s: bad authenticated-string header at 0x%x" (as_label what) ptr

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
   runs one at a time: the call's control-flow resolution, reported to
   telemetry on the allow and deny paths alike, and the lbMAC chain step's
   16-byte buffers — the policy-state block being MAC'd, the freshly
   computed tag, and the tag read back from guest memory. Reusing them is
   what takes the fast path's host allocation toward zero. *)
type scratch = {
  mutable cf : Asc_obs.Telemetry.cf_reason;
  state : Bytes.t;
  tag : Bytes.t;
  read : Bytes.t;
}

(* A vcache hit replaces the modeled CMAC cycles with the (much cheaper)
   hit cost, still charged to the same step counter so the Table 4
   decomposition keeps summing; the skipped cycles feed the cache's
   cycles-saved gauge. The miss path is the reference checker's, including
   what it denies and how; only a successful verification is remembered. *)
let verify_as m steps step ~fast ~pid key (r : Encoded.as_ref) what =
  match Machine.read_mem m ~addr:r.as_addr ~len:r.as_len with
  | None -> deny (vstep_of step) "%s: string contents unreadable" (as_label what)
  | Some contents ->
    (* sound to cache: the entry carries the full contents — every byte
       the string MAC covers — so tampered bytes or a tampered tag miss *)
    (match fast with
     | Some f when Vcache.check f.vcache ~pid ~bytes:contents ~mac:r.as_mac ->
       let hit = Cost_model.vcache_hit_cost r.as_len in
       charge m steps step hit;
       Vcache.note_saved f.vcache (Cost_model.mac_cost r.as_len - hit)
     | _ ->
       charge m steps step (Cost_model.mac_cost r.as_len);
       let expect = Auth_string.mac_of key contents in
       if not (Cmac.equal_tags expect r.as_mac) then
         deny_mac (vstep_of step) ~expected:expect ~got:r.as_mac
           "%s: string authentication failed" (as_label what);
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
      | k -> deny Violation.Ext "unknown extension kind %d" k
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
    deny Violation.Control_flow
      "control-flow violation: block %d may not follow block %d" block last_block;
  (* update: counter++ in kernel space, lastBlock/lbMAC in the application *)
  p.counter <- p.counter + 1;
  charge m steps Control_flow (Cost_model.mac_cost 16);
  let new_mac = Cmac.mac key (Encoded.state_bytes ~counter:p.counter ~last_block:block) in
  if not (Machine.write_word m lbp block && Machine.write_mem m ~addr:(lbp + 8) new_mac)
  then deny Violation.Control_flow "policy state unwritable";
  (* the whole step just succeeded from the live bytes: compile the
     site's bitset so the next trap is one load+test *)
  match fast with
  | Some f -> Cfpre.compile f.cfpre ~pid:p.pid ~site ~pred_ref ~contents:pred_contents
  | None -> ()

let pre ~kernel ~key ~normalize_paths ~fast ~scratch:sc ~steps (p : Process.t) ~site ~number =
  let m = p.machine in
  let r i = m.regs.(i) in
  (* --- step 1 (one alloc region): rebuild the encoded call and check the
     call MAC. The region returns the rebuilt references the later steps
     need, so their allocation is attributed here, where it happens. --- *)
  let reason, block, string_args, ext, control =
    step_region m steps Call_mac (fun () ->
      charge m steps Call_mac Cost_model.check_fixed;
      let descriptor = r 7 in
      if not (Descriptor.is_authenticated descriptor) then
        deny Violation.Unauthenticated "unauthenticated system call";
      let block = r 8 in
      let pred_ptr = r 9 and lb_ptr = r 10 and mac_ptr = r 11 and ext_ptr = r 14 in
      let const_args = List.map (fun i -> (i, r (i + 1))) (Descriptor.const_args descriptor) in
      let string_args =
        List.map
          (fun i -> (i, read_as_header m ~ptr:(r (i + 1)) i))
          (Descriptor.string_args descriptor)
      in
      let ext =
        if Descriptor.has_ext descriptor then Some (read_as_header m ~ptr:ext_ptr extension_block)
        else None
      in
      let control =
        if Descriptor.has_control_flow descriptor then
          Some (read_as_header m ~ptr:pred_ptr predecessor_set, lb_ptr)
        else None
      in
      let call =
        { Encoded.e_number = number;
          e_site = site;
          e_descriptor = descriptor;
          e_block = block;
          e_const_args = const_args;
          e_string_args = string_args;
          e_ext = ext;
          e_control = control }
      in
      let supplied = read_mac m mac_ptr in
      (* Step 1 resolution, reported as the call's telemetry reason code. *)
      let reason =
        match fast with
        | None ->
          ignore (call_mac_slow m steps key call ~supplied);
          Asc_obs.Telemetry.Slow_path
        | Some { precomp = pc; _ } ->
          (* Precompiled-site fast path (step 1 only): when the per-pid table
             proves the call MAC — by memo equality or by resuming the saved
             chaining state over the dynamic suffix — charge the precomp cost
             into the same call-MAC counter and skip the encoded-string
             serialization. A declined probe charges nothing: the reference
             CMAC decides, compiles the site, and the reason records why the
             table declined. *)
          let encoded_len = Encoded.encoded_length descriptor in
          let suffix_len = encoded_len - Encoded.static_prefix_len in
          (match Precomp.check pc ~pid:p.pid ~call ~supplied with
           | Precomp.Hit ->
             let cost = Cost_model.precomp_hit_cost suffix_len in
             charge m steps Call_mac cost;
             Precomp.note_saved pc (Cost_model.mac_cost encoded_len - cost);
             Asc_obs.Telemetry.Precomp_hit
           | Precomp.Resumed ->
             let cost = Cost_model.precomp_lookup_cost + Cost_model.mac_resume_cost suffix_len in
             charge m steps Call_mac cost;
             Precomp.note_saved pc (Cost_model.mac_cost encoded_len - cost);
             Asc_obs.Telemetry.Precomp_resumed
           | Precomp.Declined cause ->
             let encoded = call_mac_slow m steps key call ~supplied in
             Precomp.compile pc ~pid:p.pid ~call ~encoded ~mac:supplied;
             Asc_obs.Telemetry.Precomp_fallback cause)
      in
      (reason, block, string_args, ext, control))
  in
  (* --- step 2: verify authenticated string contents --- *)
  let verified_strings =
    match string_args with
    | [] -> []
    | args ->
      step_region m steps String_mac (fun () ->
        List.map
          (fun (i, ar) ->
            (i, verify_as m steps String_mac ~fast ~pid:p.pid key ar i))
          args)
  in
  let ext_contents =
    match ext with
    | None -> None
    | Some ar ->
      step_region m steps Ext (fun () ->
        Some (verify_as m steps Ext ~fast ~pid:p.pid key ar extension_block))
  in
  (* --- step 3: control-flow policy --- *)
  (match control with
   | None -> ()
   | Some (pred_ref, lbp) ->
     step_region m steps Control_flow (fun () ->
       (* The predecessor set is content-stable (cacheable like any
          authenticated string); the lbMAC below is nonce-fresh by design —
          the kernel-held counter changes every call — and is never cached.
          The match is deliberately flat (no intermediate option/tuple):
          the hit branch's whole host-allocation budget is Cfpre.check's
          [Hit] block. *)
       match fast with
       | Some f ->
         (match Cfpre.check f.cfpre ~m ~pid:p.pid ~site ~pred_ref with
          | Cfpre.Hit entry ->
            (* Bitset fast path: the live reference and the live guest bytes
               equal the slow-path-verified ones (Cfpre.check just compared
               both), so the set's string MAC would necessarily verify — the
               predecessor check is one load+test in the compiled bitset. The
               lbMAC is still verified and rewritten fresh on this very call
               (§3.4 nonce-freshness is untouched); the monitor's scratch
               buffers and single-block CMAC only amortize setup and
               allocation. *)
            sc.cf <- Asc_obs.Telemetry.Cf_hit;
            let len = Cfpre.contents_length entry in
            charge m steps Control_flow (Cost_model.cfpre_hit_cost len);
            if not (Machine.word_ok m lbp) then
              deny Violation.Control_flow "policy state unreadable";
            let last_block = Machine.word_at m lbp in
            if not (Machine.read_into m ~addr:(lbp + 8) ~buf:sc.read ~pos:0 ~len:16)
            then deny Violation.Control_flow "policy state MAC unreadable";
            charge m steps Control_flow Cost_model.lbmac_chain_cost;
            Cfpre.state_into sc.state ~counter:p.counter ~last_block;
            Cmac.mac_block_into key sc.state ~dst:sc.tag;
            if not (Cmac.equal_tags_bytes sc.tag sc.read) then
              deny_mac Violation.Control_flow
                ~expected:(Bytes.to_string sc.tag)
                ~got:(Bytes.to_string sc.read)
                "policy state corrupted";
            if not (Cfpre.member entry last_block) then
              deny Violation.Control_flow
                "control-flow violation: block %d may not follow block %d" block last_block;
            (* update: counter++ in kernel space, lastBlock/lbMAC in the
               application *)
            p.counter <- p.counter + 1;
            charge m steps Control_flow Cost_model.lbmac_chain_cost;
            Cfpre.state_into sc.state ~counter:p.counter ~last_block:block;
            Cmac.mac_block_into key sc.state ~dst:sc.tag;
            if
              not
                (Machine.word_ok m lbp
                 && Machine.write_from m ~addr:(lbp + 8) ~buf:sc.tag ~pos:0 ~len:16)
            then deny Violation.Control_flow "policy state unwritable";
            Machine.set_word m lbp block;
            Cfpre.note_saved f.cfpre
              (Cost_model.mac_cost len - Cost_model.cfpre_hit_cost len
               + (2 * (Cost_model.mac_cost 16 - Cost_model.lbmac_chain_cost)))
          | Cfpre.Declined cause ->
            sc.cf <- cause;
            control_flow_slow ~m ~steps ~fast ~key p ~site ~pred_ref ~lbp ~block)
       | None -> control_flow_slow ~m ~steps ~fast ~key p ~site ~pred_ref ~lbp ~block));
  (* --- §5 extensions: allowed-value sets and argument patterns --- *)
  (match ext_contents with
   | None -> ()
   | Some contents ->
     step_region m steps Ext (fun () ->
       List.iter
         (fun (argi, e) ->
           match e with
           | `Set vs ->
             if not (List.mem (r (argi + 1)) vs) then
               deny Violation.Ext "argument %d value %d not in allowed set" argi (r (argi + 1))
           | `Pattern pat ->
             (match Machine.read_cstring m ~addr:(r (argi + 1)) ~max:4096 with
              | None ->
                deny Violation.Pattern "argument %d: unreadable string for pattern check" argi
              | Some s ->
                (match Patterns.compile pat with
                 | Error e -> deny Violation.Pattern "argument %d: bad pattern (%s)" argi e
                 | Ok cp ->
                   charge m steps Ext (Patterns.match_cost cp s);
                   if not (Patterns.matches cp s) then
                     deny Violation.Pattern
                       "argument %d: %S does not match pattern %S" argi s pat)))
         (parse_ext contents)));
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
                "path %S normalizes to %S (possible symlink attack)" path canon
            | Ok _ | Error _ -> ()
          end)
        verified_strings
  end;
  reason

let monitor ~kernel ~key ?(normalize_paths = false) ?inject ?vcache ?precomp ?cfpre () =
  let fast =
    match (vcache, precomp, cfpre) with
    | Some vcache, Some precomp, Some cfpre -> Some { vcache; precomp; cfpre }
    | None, None, None -> None
    | _ -> invalid_arg "Checker.monitor: arm vcache, precomp and cfpre together or not at all"
  in
  let steps = steps_of ?inject kernel.Kernel.obs in
  (* lifecycle: every entry is image-specific, so execve and teardown drop
     the pid's entries in all three layers; a pid's first entry creates
     its tables *)
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
    { cf = Asc_obs.Telemetry.Cf_none;
      state = Bytes.create 16;
      tag = Bytes.create 16;
      read = Bytes.create 16 }
  in
  let telemetry = Kernel.telemetry kernel in
  { Kernel.monitor_name = "asc-checker";
    pre_syscall =
      (fun p ~site ~number ->
        let m = p.Process.machine in
        let shard = Asc_obs.Telemetry.shard telemetry ~pid:p.Process.pid in
        let total0 = Asc_obs.Metrics.counter_value steps.st_total in
        let alloc0 = Asc_obs.Profile.minor_words () in
        (* Exactly one reason code per monitored call — the exhaustiveness
           invariant the telemetry tests pin. The recording cost is charged
           to the machine (the kernel spends those cycles) but deliberately
           NOT to the checker.cycles.* step counters: the Table 4
           decomposition stays verification-only, and the plane's
           self-overhead meter is gauged against it. The same split holds
           for memory: [alloc] below is the words the verification itself
           allocated, while the plane's own recording allocation is
           measured separately into checker.alloc.telemetry. *)
        let telemetry_frame = Asc_obs.Profile.Label "<kernel:telemetry>" in
        let finish reason =
          let cycles = Asc_obs.Metrics.counter_value steps.st_total - total0 in
          let alloc = Asc_obs.Profile.minor_words () - alloc0 in
          m.Machine.cycles <- m.Machine.cycles + Cost_model.telemetry_record_cost;
          (match m.Machine.profile with
           | Some prof -> Asc_obs.Profile.enter prof telemetry_frame
           | None -> ());
          let ta0 = Asc_obs.Profile.minor_words () in
          (match m.Machine.profile with
           | Some prof -> Asc_obs.Profile.charge prof Cost_model.telemetry_record_cost
           | None -> ());
          Asc_obs.Telemetry.note_self telemetry shard Cost_model.telemetry_record_cost;
          let sem =
            match Personality.sem_of kernel.Kernel.pers number with
            | Some s -> Syscall.name s
            | None -> Printf.sprintf "syscall#%d" number
          in
          Asc_obs.Telemetry.record telemetry shard ~site ~sem ~reason ~cf:sc.cf ~cycles
            ~alloc ~now:m.Machine.cycles;
          let td = Asc_obs.Profile.minor_words () - ta0 in
          if td > 0 then Asc_obs.Metrics.add steps.sa_telemetry td;
          match m.Machine.profile with
          | Some prof -> Asc_obs.Profile.leave prof
          | None -> ()
        in
        sc.cf <- Asc_obs.Telemetry.Cf_none;
        match
          pre ~kernel ~key ~normalize_paths ~fast ~scratch:sc ~steps p ~site ~number
        with
        | reason ->
          finish reason;
          Asc_obs.Metrics.inc steps.st_checked;
          Kernel.Allow
        | exception Deny f ->
          finish (Asc_obs.Telemetry.Deny (Violation.step_name f.f_step));
          Kernel.Deny_violation
            { Violation.v_step = f.f_step;
              v_site = site;
              v_number = number;
              v_sem = None;
              v_reason = f.f_reason;
              v_expected_mac = f.f_expected;
              v_got_mac = f.f_got });
    post_syscall = Kernel.no_post }

let monitor_with ~kernel ~key ?normalize_paths ?inject fast =
  match fast with
  | Some { vcache; precomp; cfpre } ->
    monitor ~kernel ~key ?normalize_paths ?inject ~vcache ~precomp ~cfpre ()
  | None -> monitor ~kernel ~key ?normalize_paths ?inject ()
