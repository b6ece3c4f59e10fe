type counter = { mutable c_value : int }
type gauge = { mutable g_value : int }

type histogram = {
  bounds : int array;        (* inclusive upper bounds, strictly increasing *)
  counts : int array;        (* length = Array.length bounds + 1; last = overflow *)
  mutable h_sum : int;
  mutable h_count : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type registered = {
  r_instrument : instrument;
  r_help : string;
}

type registry = { tbl : (string, registered) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let default = create ()

let default_buckets = [ 100; 300; 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000 ]

(* Log-linear bounds (HDR-histogram style): within each decade [d, 10d)
   the bounds are the multiples of d, so the bucket containing a value v
   is never wider than the decade-leading digit allows — the width of the
   bucket (k*d, (k+1)*d] is d <= v, which is what makes the quantile
   estimator's error provably at most one bucket width. *)
let log_linear_buckets ~lo ~hi =
  if lo < 1 then invalid_arg "Metrics.log_linear_buckets: lo must be >= 1";
  if hi <= lo then invalid_arg "Metrics.log_linear_buckets: hi must exceed lo";
  (* first decade at or below lo *)
  let d = ref 1 in
  while !d * 10 <= lo do
    d := !d * 10
  done;
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    for k = 1 to 9 do
      let b = k * !d in
      if b >= lo && b < hi && (match !acc with x :: _ -> b > x | [] -> true) then
        acc := b :: !acc
    done;
    if !d > hi / 10 then continue := false else d := !d * 10
  done;
  List.rev (hi :: !acc)

let register registry name help make same =
  match Hashtbl.find_opt registry.tbl name with
  | Some { r_instrument; _ } ->
    (match same r_instrument with
     | Some x -> x
     | None -> invalid_arg (Printf.sprintf "Metrics: %S already registered as another kind" name))
  | None ->
    let x, instrument = make () in
    Hashtbl.replace registry.tbl name { r_instrument = instrument; r_help = help };
    x

let counter ?(help = "") registry name =
  register registry name help
    (fun () ->
      let c = { c_value = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge ?(help = "") registry name =
  register registry name help
    (fun () ->
      let g = { g_value = 0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram ?(help = "") ?(buckets = default_buckets) registry name =
  let bounds = Array.of_list buckets in
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing")
    bounds;
  register registry name help
    (fun () ->
      let h = { bounds; counts = Array.make (Array.length bounds + 1) 0; h_sum = 0; h_count = 0 } in
      (h, Histogram h))
    (function
      | Histogram h when h.bounds = bounds -> Some h
      | Histogram _ ->
        invalid_arg (Printf.sprintf "Metrics: histogram %S re-registered with different buckets" name)
      | _ -> None)

let inc c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let set g v = g.g_value <- v

(* First slot whose bound is >= v; [Array.length bounds] is the overflow
   slot. A linear scan: bucket arrays are small (~10) and fixed, and the
   common case (cheap syscalls) exits in the first few probes. A top-level
   loop, so an observation allocates no closure; the annotation keeps the
   comparison on ints instead of polymorphic. *)
let rec slot_of (bounds : int array) (v : int) i =
  if i >= Array.length bounds || v <= bounds.(i) then i else slot_of bounds v (i + 1)

let observe h v =
  let s = slot_of h.bounds v 0 in
  h.counts.(s) <- h.counts.(s) + 1;
  h.h_sum <- h.h_sum + v;
  h.h_count <- h.h_count + 1

let counter_value c = c.c_value
let gauge_value g = g.g_value

type histogram_snapshot = {
  h_buckets : (int * int) list;
  h_overflow : int;
  h_count : int;
  h_sum : int;
}

let histogram_value h =
  { h_buckets = Array.to_list (Array.mapi (fun i b -> (b, h.counts.(i))) h.bounds);
    h_overflow = h.counts.(Array.length h.bounds);
    h_count = h.h_count;
    h_sum = h.h_sum }

(* Estimate the q-quantile from bucket counts: find the bucket holding the
   ceil(q*count)-th smallest observation and interpolate linearly inside
   it. The true observation lies in the same (lower, upper] interval as
   the estimate, so the absolute error is bounded by that bucket's width —
   with log-linear bounds, a bounded *relative* error. Observations above
   the last bound cannot be located; the last bound is returned (a
   documented underestimate). *)
let quantile snap q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Metrics.quantile: q outside [0,1]";
  if snap.h_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int snap.h_count)) in
      if r < 1 then 1 else if r > snap.h_count then snap.h_count else r
    in
    let rec walk lower cum = function
      | [] ->
        (* rank falls in the overflow bucket: clamp to the last bound *)
        lower
      | (upper, c) :: rest ->
        if c > 0 && cum + c >= rank then begin
          let pos = float_of_int (rank - cum) /. float_of_int c in
          lower + int_of_float (ceil (pos *. float_of_int (upper - lower)))
        end
        else walk upper (cum + c) rest
    in
    walk 0 0 snap.h_buckets
  end

let value registry name =
  match Hashtbl.find_opt registry.tbl name with
  | Some { r_instrument = Counter c; _ } -> Some c.c_value
  | Some { r_instrument = Gauge g; _ } -> Some g.g_value
  | Some { r_instrument = Histogram _; _ } | None -> None

let sorted registry =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry.tbl [])

let names registry = List.map fst (sorted registry)

let reset registry =
  Hashtbl.iter
    (fun _ { r_instrument; _ } ->
      match r_instrument with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0
      | Histogram h ->
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.h_sum <- 0;
        h.h_count <- 0)
    registry.tbl

let instrument_json name { r_instrument; r_help } =
  let base kind rest =
    Json.Obj
      (("name", Json.Str name) :: ("kind", Json.Str kind)
       :: (if r_help = "" then rest else ("help", Json.Str r_help) :: rest))
  in
  match r_instrument with
  | Counter c -> base "counter" [ ("value", Json.Int c.c_value) ]
  | Gauge g -> base "gauge" [ ("value", Json.Int g.g_value) ]
  | Histogram h ->
    let snap = histogram_value h in
    base "histogram"
      [ ("count", Json.Int snap.h_count);
        ("sum", Json.Int snap.h_sum);
        ( "buckets",
          Json.List
            (List.map
               (fun (le, n) -> Json.Obj [ ("le", Json.Int le); ("count", Json.Int n) ])
               snap.h_buckets) );
        ("overflow", Json.Int snap.h_overflow) ]

let to_json registry =
  Json.List (List.map (fun (name, r) -> instrument_json name r) (sorted registry))
