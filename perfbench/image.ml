(* Installed-image surgery: capture what the checker sees at each trap, and
   patch bytes of an image (tampering, policy variants). *)

open Oskernel
module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded
module Descriptor = Asc_core.Descriptor

let section_at (img : Svm.Obj_file.t) ~addr ~len =
  List.find_opt
    (fun (s : Svm.Obj_file.section) ->
      s.sec_kind <> Svm.Obj_file.Bss && addr >= s.sec_addr && addr + len <= s.sec_addr + s.sec_size)
    img.sections

let read (img : Svm.Obj_file.t) ~addr ~len =
  match section_at img ~addr ~len with
  | Some s -> String.sub s.sec_payload (addr - s.sec_addr) len
  | None -> failwith (Printf.sprintf "image read: 0x%x+%d is not in a loaded section" addr len)

let patch (img : Svm.Obj_file.t) ~addr bytes =
  let len = String.length bytes in
  match section_at img ~addr ~len with
  | None -> failwith (Printf.sprintf "image patch: 0x%x+%d is not in a loaded section" addr len)
  | Some target ->
    let patched =
      let b = Bytes.of_string target.sec_payload in
      Bytes.blit_string bytes 0 b (addr - target.sec_addr) len;
      { target with sec_payload = Bytes.to_string b }
    in
    { img with sections = List.map (fun s -> if s == target then patched else s) img.sections }

let flip img ~addr ~mask =
  let b = read img ~addr ~len:1 in
  patch img ~addr (String.make 1 (Char.chr (Char.code b.[0] lxor mask)))

(* One trap of an installed program: the raw registers and the encoded call
   the checker would rebuild from them (as in its step 1). *)
type trap = {
  site : int;
  number : int;
  regs : int array;
  call : Encoded.t;
}

let header m ptr =
  match Asc_core.Auth_string.read_header (Svm.Machine.read_byte m) ~ptr with
  | Some (len, mac) -> { Encoded.as_addr = ptr; as_len = len; as_mac = mac }
  | None -> failwith (Printf.sprintf "no authenticated-string header at 0x%x" ptr)

let rebuild (m : Svm.Machine.t) ~site ~number =
  let r i = m.regs.(i) in
  let d = r 7 in
  { Encoded.e_number = number;
    e_site = site;
    e_descriptor = d;
    e_block = r 8;
    e_const_args = List.map (fun i -> (i, r (i + 1))) (Descriptor.const_args d);
    e_string_args = List.map (fun i -> (i, header m (r (i + 1)))) (Descriptor.string_args d);
    e_ext = (if Descriptor.has_ext d then Some (header m (r 14)) else None);
    e_control = (if Descriptor.has_control_flow d then Some (header m (r 9), r 10) else None) }

(* Run an installed image under a monitor that only records (nothing is
   verified) up to the first trap [wanted] accepts, and return that trap;
   the process is stopped there. *)
let capture ~prepare ~stdin ~program ~wanted img =
  let kernel = Kernel.create () in
  prepare kernel;
  let found = ref None in
  let record (p : Process.t) ~site ~number =
    let m = p.machine in
    let t = { site; number; regs = Array.copy m.regs; call = rebuild m ~site ~number } in
    if wanted t then begin
      found := Some t;
      Kernel.Deny "captured"
    end
    else Kernel.Allow
  in
  Kernel.set_monitor kernel
    (Some { Kernel.monitor_name = "capture"; pre_syscall = record; post_syscall = Kernel.no_post });
  let p = Kernel.spawn kernel ~stdin ~program img in
  ignore (Kernel.run kernel p ~max_cycles:200_000_000);
  match !found with
  | Some t -> t
  | None -> failwith (program ^ ": the trap to capture was not reached")

(* The call MAC an installed site carries must be the MAC of the rebuilt
   call — the check that [rebuild] mirrors the checker. *)
let check_rebuild ~key img (t : trap) =
  let supplied = read img ~addr:t.regs.(11) ~len:16 in
  if not (Cmac.equal_tags supplied (Cmac.mac key (Encoded.encode t.call))) then
    failwith (Printf.sprintf "site 0x%x: rebuilt call does not match its call MAC" t.site)
