(* Host clock, growable sample arrays and order statistics. *)

(* CLOCK_MONOTONIC in ns: an unboxed noalloc external, so reading it inside
   a measured interval allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words = Asc_obs.Profile.minor_words

(* Co-tenant load on a shared host swings CPU speed by up to 2x within
   seconds, and process CPU time swings with it (contention, not steal). So
   a fixed unit of CPU work is timed next to every job, and host times are
   reported on a reference host: scaled by [reference_calib_ns] over the
   calibration measured around them. *)
let calib_iters = 60_000
let reference_calib_ns = 200_000.
let calib_buf = Array.make 4096 0
let calib_code = Bytes.init 4096 (fun i -> Char.chr (i * 37 land 255))

(* Interpreter-shaped work: fetch an opcode byte, branch on it, touch a
   register-file-sized array, allocate now and then. *)
let calibrate () =
  let a = calib_buf and acc = ref 0 in
  let t0 = now_ns () in
  for i = 0 to calib_iters - 1 do
    let op = Bytes.get_uint8 calib_code (i land 4095) in
    let j = i * 7919 land 4095 in
    match op land 3 with
    | 0 -> a.(j) <- a.(j) + op
    | 1 -> acc := !acc lxor a.(j)
    | 2 -> a.(j) <- !acc
    | _ -> acc := !acc + snd (Sys.opaque_identity (op, i))
  done;
  ignore (Sys.opaque_identity !acc);
  float (now_ns () - t0)

(* Scale for an interval between two calibrations. *)
let host_scale ~before ~after = reference_calib_ns /. ((before +. after) /. 2.)

(* Growable int array for per-trap and per-job samples. *)
type samples = {
  mutable data : int array;
  mutable len : int;
}

let samples () = { data = Array.make 1024 0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

let sum s =
  let t = ref 0 in
  for i = 0 to s.len - 1 do
    t := !t + s.data.(i)
  done;
  !t

(* Linear interpolation between closest ranks (numpy's default). [a] must be
   sorted; 0 when empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float lo in
    (float a.(lo) *. (1. -. frac)) +. (float a.(hi) *. frac)

let median a = quantile a 0.5

(* The highest of these percentiles with at least ten samples beyond it. *)
let tail_percentile n =
  let candidates = [ 99.9; 99.; 95.; 90.; 75.; 50. ] in
  match List.find_opt (fun p -> float n *. (1. -. (p /. 100.)) >= 10.) candidates with
  | Some p -> p
  | None -> 50.

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float a) (float b)
