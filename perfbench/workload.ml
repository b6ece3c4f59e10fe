(* The three workloads. Each is a closed loop of jobs — one process spawned
   and run to its terminal stop on one shared kernel — grouped into rounds.
   Every round starts from the same filesystem state ([base]); the run
   cycles through [rounds], restoring [base] after each. The seed derives the
   job order, the programs' inputs and the tamper choices. *)

open Oskernel
module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded

let key = Cmac.of_raw "perfbench-key-16"
let personality = Personality.linux
let max_cycles = 2_000_000_000

type expect =
  | Benign  (* must behave exactly like its original binary *)
  | Denied of Violation.step  (* tampered: must be killed at this step *)

type job = {
  tool : string;
  image : Svm.Obj_file.t;          (* what the monitored kernel runs *)
  orig : Svm.Obj_file.t option;    (* the uninstalled binary; [None] when tampered *)
  stdin : string;
  expect : expect;
}

type t = {
  kernel : Kernel.t;
  vcache : Asc_core.Vcache.t;
  precomp : Asc_core.Precomp.t;
  cfpre : Asc_core.Cfpre.t;
  rounds : job array array;
  prepare : Kernel.t -> unit;      (* the workload's filesystem inputs *)
  base : (string * Vfs_snap.entry) list;
}

let names = [ "hot_loop"; "tool_fleet"; "paper_suite" ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let put_file kernel path contents =
  match Vfs.create_file kernel.Kernel.vfs ~cwd:"/" path ~contents with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: %s" path (Errno.name e))

let u32le v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
let u64le v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

(* ---- hot_loop ---------------------------------------------------------- *)

(* K iterations of getpid / access(path) / write(msg), K and the 8-byte msg
   read from stdin. Every fourth iteration an installed copy, after its
   access trap, swaps the path's authenticated-string header and the site's
   call MAC for the other of two valid variants kept at [alt] (filled in
   after installation), so the site's dynamic fields change and precomp
   resumes its saved CMAC state. The copy is bytewise: a 64-bit [ld]/[st]
   pair does not preserve bit 63 of arbitrary bytes. An uninstalled copy
   has r11 = 0 and skips the swap. *)
let hot_loop_asm () =
  let n s = Option.get (Personality.number_of personality s) in
  Printf.sprintf
    {|
_start: movi r0, %d
        movi r1, 0
        movi r2, inbuf
        movi r3, 16
        sys
        movi r2, inbuf
        ld r6, [r2+0]
        movi r5, 0
        movi r4, 0
Lloop:  bge r5, r6, Ldone
        movi r0, %d
        sys
        movi r0, %d
        movi r1, path
        movi r2, 0
        sys
        movi r3, 0
        beq r11, r3, Lkeep
        movi r12, 3
        and r12, r5, r12
        bne r12, r3, Lkeep
        movi r3, 40
        sub r4, r3, r4
        movi r2, alt
        add r2, r2, r4
        addi r3, r1, -20
        addi r12, r2, 20
Lhdr:   ldb r0, [r2+0]
        stb [r3+0], r0
        addi r2, r2, 1
        addi r3, r3, 1
        blt r2, r12, Lhdr
        addi r2, r2, 4
        mov r3, r11
        addi r12, r2, 16
Lmac:   ldb r0, [r2+0]
        stb [r3+0], r0
        addi r2, r2, 1
        addi r3, r3, 1
        blt r2, r12, Lmac
Lkeep:  movi r0, %d
        movi r1, 1
        movi r2, inbuf+8
        movi r3, 8
        sys
        addi r5, r5, 1
        jmp Lloop
Ldone:  movi r0, %d
        movi r1, 0
        sys
        halt
        .rodata
path:   .asciz "/tmp/hot"
        .data
alt:    .space 80
        .bss
inbuf:  .space 16
|}
    (n Syscall.Read) (n Syscall.Getpid) (n Syscall.Access) (n Syscall.Write) (n Syscall.Exit)

let hot_stdin ~iterations ~msg = u64le iterations ^ msg

(* The two 40-byte variants of the access site: [header(20) pad(4) mac(16)].
   Variant B authenticates the same path with one more (NUL) byte taken
   from the alignment padding, so the path the kernel reads is unchanged
   while the string reference, its MAC and the call MAC all differ. *)
let hot_variants img (t : Image.trap) =
  let r =
    match t.call.Encoded.e_string_args with
    | [ (0, r) ] -> r
    | _ -> failwith "hot_loop: the access site has no authenticated path"
  in
  let ptr = r.Encoded.as_addr and len = r.Encoded.as_len in
  if (ptr + len) land 7 = 0 || Image.read img ~addr:(ptr + len) ~len:1 <> "\000" then
    failwith "hot_loop: no padding byte after the path string";
  let header (r : Encoded.as_ref) = u32le r.as_len ^ r.as_mac in
  if header r <> Image.read img ~addr:(ptr - 20) ~len:20 then
    failwith "hot_loop: unexpected authenticated-string header";
  let contents_b = Image.read img ~addr:ptr ~len ^ "\000" in
  let rb =
    { r with Encoded.as_len = len + 1; as_mac = Asc_core.Auth_string.mac_of key contents_b }
  in
  let call_b = { t.call with Encoded.e_string_args = [ (0, rb) ] } in
  let variant r mac = header r ^ String.make 4 '\000' ^ mac in
  variant r (Image.read img ~addr:t.regs.(11) ~len:16)
  ^ variant rb (Cmac.mac key (Encoded.encode call_b))

let hot_loop (lay : Layers.t) ~rng =
  let orig = Svm.Asm.assemble_exn (hot_loop_asm ()) in
  let options = Asc_core.Installer.default_options in
  let inst = Layers.install lay ~key ~personality ~options ~program:"hot_loop" orig in
  let prepare kernel = put_file kernel "/tmp/hot" "hot\n" in
  let access = Option.get (Personality.number_of personality Syscall.Access) in
  let site =
    Image.capture ~prepare ~program:"hot_loop"
      ~stdin:(hot_stdin ~iterations:1 ~msg:"probe..\n")
      ~wanted:(fun t -> t.number = access)
      inst
  in
  Image.check_rebuild ~key inst site;
  let alt =
    match Svm.Obj_file.find_symbol inst "alt" with
    | Some a -> a
    | None -> failwith "hot_loop: installed image lost the [alt] symbol"
  in
  let image = Image.patch inst ~addr:alt (hot_variants inst site) in
  let job () =
    let iterations = 190 + Random.State.int rng 21 in
    let msg = String.init 7 (fun _ -> Char.chr (97 + Random.State.int rng 26)) ^ "\n" in
    { tool = "hot_loop";
      image;
      orig = Some orig;
      stdin = hot_stdin ~iterations ~msg;
      expect = Benign }
  in
  (prepare, Array.init 4 (fun _ -> Array.init 8 (fun _ -> job ())))

(* ---- tool_fleet -------------------------------------------------------- *)

let seed_files = 4
let seed_path i = Printf.sprintf "/data/seed%d" i

(* Compressible, sortable text: a run of one letter per line. The run
   lengths are fixed and neighbouring lines never share a letter, so the
   seed changes the bytes but not the work gzip/gunzip/sort do on them. *)
let seed_text rng =
  let prev = ref (-1) in
  String.concat ""
    (List.init 26 (fun i ->
         let c = (!prev + 1 + Random.State.int rng 25) mod 26 in
         prev := c;
         let run = 20 + (i * 7 mod 40) in
         String.make run (Char.chr (97 + c)) ^ String.make (78 - run) ' ' ^ "\n"))

let lines l = String.concat "\n" l ^ "\n"

let calc_input rng =
  lines
    (List.init 3 (fun _ ->
         Printf.sprintf "%d+%d*%d" (Random.State.int rng 100) (Random.State.int rng 10)
           (Random.State.int rng 10)))

(* One round of Andrew-style tasks in /work/cur; ends with every file it
   created removed (the filesystem restore after the round removes the
   directory it made). *)
let fleet_script rng =
  let d = "/work/cur" in
  let f i = Printf.sprintf "%s/f%d" d i in
  let o i = Printf.sprintf "%s/sub/f%d.out" d i in
  let fin i = Printf.sprintf "%s/sub/f%d.fin" d i in
  let phase mk = List.map mk (shuffle rng (List.init seed_files Fun.id)) in
  let some_file () = f (Random.State.int rng seed_files) in
  List.concat
    [ [ ("mkdir", lines [ d ^ "/sub" ]) ];
      phase (fun i -> ("cp", lines [ seed_path (Random.State.int rng seed_files); f i ]));
      phase (fun i -> ("chmod", lines [ pick rng [ "420"; "384"; "436" ]; f i ]));
      phase (fun i -> ("gzip", lines [ f i; f i ^ ".rle" ]));
      phase (fun i -> ("gunzip", lines [ f i ^ ".rle"; o i ]));
      shuffle rng
        [ ("cat", lines [ some_file () ]);
          ("cat", lines [ some_file () ]);
          ("sort", lines [ some_file () ]);
          ("calc", calc_input rng);
          ("calc", calc_input rng) ];
      phase (fun i -> ("mv", lines [ o i; fin i ]));
      phase (fun i -> ("rm", lines [ f i ^ ".rle" ]));
      phase (fun i -> ("rm", lines [ fin i ]));
      phase (fun i -> ("rm", lines [ f i ])) ]

(* The four tampers, each on an installed image, with the step that must
   deny it. No Andrew tool has a constant-pathname site, so the two string
   tampers go to calc (the Table 1-3 program that has them). *)
let tampers ~rng ~images ~prepare ~calc_stdin =
  let capture tool stdin wanted =
    Image.capture ~prepare ~stdin ~program:tool ~wanted (List.assoc tool images)
  in
  let first_trap tool = capture tool (lines [ "/data/seed0"; "/data/seed1" ]) (fun _ -> true) in
  let mac_tool = pick rng Workloads.Andrew.tool_names in
  let pred_tool = pick rng Workloads.Andrew.tool_names in
  let mac_trap = first_trap mac_tool and pred_trap = first_trap pred_tool in
  let calc_img = List.assoc "calc" images in
  let str_ref =
    match
      (capture "calc" calc_stdin (fun t -> t.call.Encoded.e_string_args <> [])).call
        .Encoded.e_string_args
    with
    | (_, r) :: _ -> r
    | [] -> assert false
  in
  let ptr = str_ref.Encoded.as_addr in
  let pred_ptr = pred_trap.regs.(9) in
  if pred_ptr = 0 then failwith (pred_tool ^ ": first trap has no predecessor set");
  [ ( "call_mac_flip",
      mac_tool,
      Image.flip (List.assoc mac_tool images) ~addr:mac_trap.regs.(11) ~mask:0x01,
      Violation.Call_mac );
    ( "predset_flip",
      pred_tool,
      Image.flip (List.assoc pred_tool images) ~addr:pred_ptr ~mask:0x01,
      Violation.Control_flow );
    ("string_flip", "calc", Image.flip calc_img ~addr:(ptr + 1) ~mask:0x20, Violation.String_mac);
    (* a longer length changes the rebuilt call, so step 1 denies before any
       string byte is read; +64 keeps the claimed string inside memory *)
    ( "length_inflate",
      "calc",
      Image.patch calc_img ~addr:(ptr - 20) (u32le (str_ref.Encoded.as_len + 64)),
      Violation.Call_mac ) ]

let tool_fleet (lay : Layers.t) ~rng =
  let calc = Option.get (Workloads.Registry.by_name ~scale:1 "calc") in
  let sources =
    List.map (fun t -> (t, Workloads.Andrew.tool_source t)) Workloads.Andrew.tool_names
    @ [ ("calc", calc.Workloads.Registry.source) ]
  in
  let origs = List.map (fun (t, src) -> (t, Layers.compile lay ~personality src)) sources in
  let images =
    List.mapi
      (fun idx (t, img) ->
        let options = { Asc_core.Installer.default_options with program_id = idx + 1 } in
        (t, Layers.install lay ~key ~personality ~options ~program:t img))
      origs
  in
  let texts = List.init seed_files (fun _ -> seed_text rng) in
  let prepare kernel =
    calc.Workloads.Registry.setup kernel;
    Vfs.mkdir_p kernel.Kernel.vfs "/data";
    Vfs.mkdir_p kernel.Kernel.vfs "/work/cur";
    List.iteri (fun i text -> put_file kernel (seed_path i) text) texts
  in
  let tampered = tampers ~rng ~images ~prepare ~calc_stdin:(calc_input rng) in
  let round () =
    let benign =
      List.map
        (fun (tool, stdin) ->
          { tool;
            image = List.assoc tool images;
            orig = Some (List.assoc tool origs);
            stdin;
            expect = Benign })
        (fleet_script rng)
    in
    (* each tamper once per round, at a seeded position after the mkdir *)
    List.fold_left
      (fun jobs (kind, tool, image, step) ->
        let stdin = if tool = "calc" then calc_input rng else lines [ "/none/a"; "/none/b" ] in
        let j = { tool = tool ^ ":" ^ kind; image; orig = None; stdin; expect = Denied step } in
        let at = 1 + Random.State.int rng (List.length jobs - 1) in
        List.filteri (fun i _ -> i < at) jobs @ (j :: List.filteri (fun i _ -> i >= at) jobs))
      benign tampered
    |> Array.of_list
  in
  (prepare, Array.init 2 (fun _ -> round ()))

(* ---- paper_suite ------------------------------------------------------- *)

let paper_suite (lay : Layers.t) ~rng =
  let programs = Workloads.Registry.table5 ~scale:1 in
  let jobs =
    List.mapi
      (fun idx (w : Workloads.Registry.t) ->
        let orig = Layers.compile lay ~personality w.source in
        let options = { Asc_core.Installer.default_options with program_id = idx + 1 } in
        let image = Layers.install lay ~key ~personality ~options ~program:w.name orig in
        { tool = w.name; image; orig = Some orig; stdin = w.stdin; expect = Benign })
      programs
  in
  let prepare kernel = List.iter (fun (w : Workloads.Registry.t) -> w.setup kernel) programs in
  (prepare, [| Array.of_list (shuffle rng jobs) |])

(* ---- set-up ------------------------------------------------------------ *)

(* Compile and install every image, then create the kernel, the deployment
   monitor (checker with vcache, precomp and cfpre) and the inputs. *)
let setup (lay : Layers.t) ~name ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let prepare, rounds =
    match name with
    | "hot_loop" -> hot_loop lay ~rng
    | "tool_fleet" -> tool_fleet lay ~rng
    | "paper_suite" -> paper_suite lay ~rng
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  let kernel = Kernel.create ~personality () in
  let registry = Kernel.metrics kernel in
  let vcache = Asc_core.Vcache.create ~registry () in
  let precomp = Asc_core.Precomp.create ~key ~registry () in
  let cfpre = Asc_core.Cfpre.create ~registry () in
  Kernel.set_monitor kernel
    (Some (Asc_core.Checker.monitor ~kernel ~key ~vcache ~precomp ~cfpre ()));
  Layers.attach lay kernel ~precomp ~cfpre;
  prepare kernel;
  { kernel;
    vcache;
    precomp;
    cfpre;
    rounds;
    prepare;
    base = Vfs_snap.snapshot kernel.Kernel.vfs }
