type fallback = F_no_entry | F_statics | F_tag

type reason =
  | Precomp_hit
  | Precomp_resumed
  | Precomp_fallback of fallback
  | Vcache_hit
  | Slow_path
  | Deny of string

let num_reasons = 8

let reason_index = function
  | Precomp_hit -> 0
  | Precomp_resumed -> 1
  | Precomp_fallback F_no_entry -> 2
  | Precomp_fallback F_statics -> 3
  | Precomp_fallback F_tag -> 4
  | Vcache_hit -> 5
  | Slow_path -> 6
  | Deny _ -> 7

let reason_labels =
  [| "precomp_hit"; "precomp_resumed"; "fallback_no_entry"; "fallback_statics";
     "fallback_tag"; "vcache_hit"; "slow_path"; "deny" |]

let reason_label r = reason_labels.(reason_index r)

(* Second exhaustive per-call dimension: how the control-flow step (the
   predecessor check + lbMAC update) was resolved. Orthogonal to [reason],
   which reports the call-MAC resolution — a call can be a precomp hit on
   step 1 and a bitset fallback on step 3. Exactly one code per monitored
   call; [Cf_none] covers calls with no control-flow policy (or no cfpre
   armed), so the buckets always sum to the call count. *)
type cf_reason =
  | Cf_none
  | Cf_hit
  | Cf_slow
  | Cf_fallback_ref
  | Cf_fallback_contents

let num_cf_reasons = 5

let cf_index = function
  | Cf_none -> 0
  | Cf_hit -> 1
  | Cf_slow -> 2
  | Cf_fallback_ref -> 3
  | Cf_fallback_contents -> 4

let cf_labels = [| "cf_none"; "cf_hit"; "cf_slow"; "cf_fallback_ref"; "cf_fallback_contents" |]
let cf_label c = cf_labels.(cf_index c)

type ledger_entry = {
  le_site : int;
  le_sem : string;
  le_reason : reason;
  le_cycles : int;
  le_alloc : int;
  le_ts : int;
}

(* Shard-internal histogram: mutable counterpart of the exported [hist].
   Counts are over the plane's shared bucket bounds (last slot = overflow)
   so merging reduces to element-wise addition. *)
type mhist = {
  m_counts : int array;
  mutable m_sum : int;
  mutable m_count : int;
}

type hist = {
  q_counts : int array;
  q_sum : int;
  q_count : int;
}

(* What a process's calls add up to. A live shard owns one, and the
   plane's retired accumulator is one more, into which [retire_pid] adds
   an exiting shard's in place. A site's array holds its per-reason
   counts at [reason_index] and its minor words in the last slot, so a
   record finds the site with one lookup. *)
type counts = {
  c_reasons : int array;
  c_cf : int array;
  c_deny : (string, int) Hashtbl.t;
  c_per_sem : (string, mhist) Hashtbl.t;
  c_sites : (int, int array) Hashtbl.t;
  c_alloc : mhist;                        (* per-call minor words, alloc bounds *)
  mutable c_calls : int;
  mutable c_cycles : int;
  mutable c_self : int;
}

type shard = {
  sh_counts : counts;
  sh_ledger : ledger_entry Ring.t;
}

type stats = {
  t_shards : int;
  t_calls : int;
  t_cycles : int;
  t_self_cycles : int;
  t_alloc_words : int;
  t_reasons : int array;
  t_cf : int array;
  t_deny_steps : (string * int) list;
  t_per_sem : (string * hist) list;
  t_sites : (int * int array) list;
  t_site_alloc : (int * int) list;
  t_alloc : hist;                         (* per-call minor words, alloc bounds *)
}

type t = {
  ring_capacity : int;
  shards : (int, shard) Hashtbl.t;
  retired : counts;
  mutable retired_shards : int;
}

(* Bucket bounds are shared by every shard so merging is element-wise.
   Per-call minor words run two orders of magnitude below per-call cycles
   (~10^2..10^3 words vs ~10^3..10^6 cycles), so the alloc histograms get
   their own log-linear ladder starting at 10 words. *)
let cycle_bounds = Array.of_list (Metrics.log_linear_buckets ~lo:100 ~hi:1_000_000)
let alloc_bounds = Array.of_list (Metrics.log_linear_buckets ~lo:10 ~hi:1_000_000)

(* one slot per bound plus the overflow slot *)
let cycle_nslots = Array.length cycle_bounds + 1
let alloc_nslots = Array.length alloc_bounds + 1

(* a site's minor words, after its per-reason counts *)
let site_alloc_slot = num_reasons

let empty_hist = { q_counts = [||]; q_sum = 0; q_count = 0 }

let empty_stats = {
  t_shards = 0;
  t_calls = 0;
  t_cycles = 0;
  t_self_cycles = 0;
  t_alloc_words = 0;
  t_reasons = Array.make num_reasons 0;
  t_cf = Array.make num_cf_reasons 0;
  t_deny_steps = [];
  t_per_sem = [];
  t_sites = [];
  t_site_alloc = [];
  t_alloc = empty_hist;
}

let new_mhist nslots = { m_counts = Array.make nslots 0; m_sum = 0; m_count = 0 }

let new_counts () = {
  c_reasons = Array.make num_reasons 0;
  c_cf = Array.make num_cf_reasons 0;
  c_deny = Hashtbl.create 4;
  c_per_sem = Hashtbl.create 16;
  c_sites = Hashtbl.create 32;
  c_alloc = new_mhist alloc_nslots;
  c_calls = 0;
  c_cycles = 0;
  c_self = 0;
}

let create ?(ring_capacity = 256) () =
  { ring_capacity; shards = Hashtbl.create 16; retired = new_counts (); retired_shards = 0 }

let shard t ~pid =
  match Hashtbl.find t.shards pid with
  | sh -> sh
  | exception Not_found ->
    let sh = { sh_counts = new_counts (); sh_ledger = Ring.create ~capacity:t.ring_capacity } in
    Hashtbl.replace t.shards pid sh;
    sh

(* First slot whose bound is >= v; [Array.length bounds] is the overflow
   slot. A top-level loop, so an observation allocates no closure; the
   annotation keeps the comparison on ints instead of polymorphic. *)
let rec slot_of (bounds : int array) (v : int) i =
  if i >= Array.length bounds || v <= bounds.(i) then i
  else slot_of bounds v (i + 1)

let mhist_observe bounds h v =
  let s = slot_of bounds v 0 in
  h.m_counts.(s) <- h.m_counts.(s) + 1;
  h.m_sum <- h.m_sum + v;
  h.m_count <- h.m_count + 1

let hist_snapshot_of bounds h =
  { Metrics.h_buckets = Array.to_list (Array.mapi (fun i b -> (b, h.q_counts.(i))) bounds);
    h_overflow = h.q_counts.(Array.length bounds);
    h_count = h.q_count;
    h_sum = h.q_sum }

let hist_snapshot _t h = hist_snapshot_of cycle_bounds h
let alloc_hist_snapshot _t h = hist_snapshot_of alloc_bounds h

(* One lookup per key, and no option: a miss adds the key's zeroed entry. *)
let sem_hist c sem =
  match Hashtbl.find c.c_per_sem sem with
  | h -> h
  | exception Not_found ->
    let h = new_mhist cycle_nslots in
    Hashtbl.add c.c_per_sem sem h;
    h

let site_counts c site =
  match Hashtbl.find c.c_sites site with
  | a -> a
  | exception Not_found ->
    let a = Array.make (site_alloc_slot + 1) 0 in
    Hashtbl.add c.c_sites site a;
    a

let add_denies c step n =
  Hashtbl.replace c.c_deny step
    (n + match Hashtbl.find c.c_deny step with m -> m | exception Not_found -> 0)

let record _t ?(cf = Cf_none) sh ~site ~sem ~reason ~cycles ~alloc ~now =
  let c = sh.sh_counts in
  let idx = reason_index reason in
  c.c_reasons.(idx) <- c.c_reasons.(idx) + 1;
  let cfi = cf_index cf in
  c.c_cf.(cfi) <- c.c_cf.(cfi) + 1;
  c.c_calls <- c.c_calls + 1;
  c.c_cycles <- c.c_cycles + cycles;
  (match reason with Deny step -> add_denies c step 1 | _ -> ());
  mhist_observe cycle_bounds (sem_hist c sem) cycles;
  mhist_observe alloc_bounds c.c_alloc alloc;
  let row = site_counts c site in
  row.(idx) <- row.(idx) + 1;
  row.(site_alloc_slot) <- row.(site_alloc_slot) + alloc;
  Ring.push sh.sh_ledger
    { le_site = site; le_sem = sem; le_reason = reason; le_cycles = cycles;
      le_alloc = alloc; le_ts = now }

let note_self _t sh n = sh.sh_counts.c_self <- sh.sh_counts.c_self + n

(* Sorted-assoc helpers: shard hashtables are exported as sorted assoc
   lists so aggregates built in any order compare structurally equal. *)
let sorted_assoc tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let hist_of h = { q_counts = Array.copy h.m_counts; q_sum = h.m_sum; q_count = h.m_count }

let stats_of_counts ~shards c =
  let sites = sorted_assoc c.c_sites in
  { t_shards = shards;
    t_calls = c.c_calls;
    t_cycles = c.c_cycles;
    t_self_cycles = c.c_self;
    t_alloc_words = c.c_alloc.m_sum;
    t_reasons = Array.copy c.c_reasons;
    t_cf = Array.copy c.c_cf;
    t_deny_steps = sorted_assoc c.c_deny;
    t_per_sem = List.map (fun (k, h) -> (k, hist_of h)) (sorted_assoc c.c_per_sem);
    t_sites = List.map (fun (k, a) -> (k, Array.sub a 0 num_reasons)) sites;
    t_site_alloc = List.map (fun (k, a) -> (k, a.(site_alloc_slot))) sites;
    t_alloc = hist_of c.c_alloc }

let stats_of_shard _t sh = stats_of_counts ~shards:1 sh.sh_counts

let add_arrays a b =
  if Array.length a <> Array.length b then
    invalid_arg "Telemetry.merge: mismatched array shapes";
  Array.mapi (fun i x -> x + b.(i)) a

let merge_hist a b =
  (* a zero-length histogram is the merge identity (e.g. [empty_stats]
     before any plane sized its bucket array) *)
  if Array.length a.q_counts = 0 then b
  else if Array.length b.q_counts = 0 then a
  else
    { q_counts = add_arrays a.q_counts b.q_counts;
      q_sum = a.q_sum + b.q_sum;
      q_count = a.q_count + b.q_count }

(* Union of two sorted assoc lists, combining values on key collision.
   Output stays sorted, so the merge result is independent of operand
   order up to structural equality. *)
let rec assoc_union combine xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | (kx, vx) :: xs', (ky, vy) :: ys' ->
    if kx < ky then (kx, vx) :: assoc_union combine xs' ys
    else if ky < kx then (ky, vy) :: assoc_union combine xs ys'
    else (kx, combine vx vy) :: assoc_union combine xs' ys'

let merge a b =
  { t_shards = a.t_shards + b.t_shards;
    t_calls = a.t_calls + b.t_calls;
    t_cycles = a.t_cycles + b.t_cycles;
    t_self_cycles = a.t_self_cycles + b.t_self_cycles;
    t_alloc_words = a.t_alloc_words + b.t_alloc_words;
    t_reasons = add_arrays a.t_reasons b.t_reasons;
    t_cf = add_arrays a.t_cf b.t_cf;
    t_deny_steps = assoc_union ( + ) a.t_deny_steps b.t_deny_steps;
    t_per_sem = assoc_union merge_hist a.t_per_sem b.t_per_sem;
    t_sites = assoc_union add_arrays a.t_sites b.t_sites;
    t_site_alloc = assoc_union ( + ) a.t_site_alloc b.t_site_alloc;
    t_alloc = merge_hist a.t_alloc b.t_alloc }

let aggregate t =
  Hashtbl.fold
    (fun _ sh acc -> merge acc (stats_of_shard t sh))
    t.shards
    (stats_of_counts ~shards:t.retired_shards t.retired)

let reasons_total s = Array.fold_left ( + ) 0 s.t_reasons
let cf_total s = Array.fold_left ( + ) 0 s.t_cf

(* [dst.(i) += src.(i)] over [src]'s length: a site's array, a count
   array or a histogram's buckets. *)
let add_into dst src =
  for i = 0 to Array.length src - 1 do
    dst.(i) <- dst.(i) + src.(i)
  done

let mhist_add dst src =
  add_into dst.m_counts src.m_counts;
  dst.m_sum <- dst.m_sum + src.m_sum;
  dst.m_count <- dst.m_count + src.m_count

(* The in-place counterpart of [merge]: it touches only [src]'s keys, so
   its cost follows what the exiting process did, not the plane's
   history. *)
let fold_into dst src =
  add_into dst.c_reasons src.c_reasons;
  add_into dst.c_cf src.c_cf;
  Hashtbl.iter (fun step n -> add_denies dst step n) src.c_deny;
  Hashtbl.iter (fun sem h -> mhist_add (sem_hist dst sem) h) src.c_per_sem;
  Hashtbl.iter (fun site a -> add_into (site_counts dst site) a) src.c_sites;
  mhist_add dst.c_alloc src.c_alloc;
  dst.c_calls <- dst.c_calls + src.c_calls;
  dst.c_cycles <- dst.c_cycles + src.c_cycles;
  dst.c_self <- dst.c_self + src.c_self

let retire_pid t ~pid =
  match Hashtbl.find t.shards pid with
  | exception Not_found -> ()
  | sh ->
    fold_into t.retired sh.sh_counts;
    t.retired_shards <- t.retired_shards + 1;
    Hashtbl.remove t.shards pid

let ledger t ~pid =
  match Hashtbl.find_opt t.shards pid with
  | Some sh -> Ring.to_list sh.sh_ledger
  | None -> []

let live_pids t =
  List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) t.shards [])

let self_cycles t =
  Hashtbl.fold (fun _ sh acc -> acc + sh.sh_counts.c_self) t.shards t.retired.c_self

let stats_to_json _t s =
  let quantiles bounds unit h =
    let snap = hist_snapshot_of bounds h in
    Json.Obj [
      ("count", Json.Int h.q_count);
      ("sum_" ^ unit, Json.Int h.q_sum);
      ("mean_" ^ unit, Json.Int (if h.q_count = 0 then 0 else h.q_sum / h.q_count));
      ("p50", Json.Int (Metrics.quantile snap 0.50));
      ("p95", Json.Int (Metrics.quantile snap 0.95));
      ("p99", Json.Int (Metrics.quantile snap 0.99));
    ]
  in
  Json.Obj [
    ("shards", Json.Int s.t_shards);
    ("calls", Json.Int s.t_calls);
    ("cycles", Json.Int s.t_cycles);
    ("self_cycles", Json.Int s.t_self_cycles);
    ("alloc_words", Json.Int s.t_alloc_words);
    ("reasons_total", Json.Int (reasons_total s));
    ("reasons",
     Json.Obj
       (Array.to_list (Array.mapi (fun i l -> (l, Json.Int s.t_reasons.(i))) reason_labels)));
    ("cf_reasons",
     Json.Obj
       (Array.to_list (Array.mapi (fun i l -> (l, Json.Int s.t_cf.(i))) cf_labels)));
    ("deny_steps",
     Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.t_deny_steps));
    ("per_syscall",
     Json.Obj (List.map (fun (k, h) -> (k, quantiles cycle_bounds "cycles" h)) s.t_per_sem));
    ("alloc",
     if Array.length s.t_alloc.q_counts = 0 then
       quantiles [||] "words" { s.t_alloc with q_counts = [| 0 |] }
     else quantiles alloc_bounds "words" s.t_alloc);
    ("sites",
     Json.List
       (List.map
          (fun (site, counts) ->
            Json.Obj
              (("site", Json.Int site)
               :: ("alloc_words",
                   Json.Int
                     (match List.assoc_opt site s.t_site_alloc with Some w -> w | None -> 0))
               :: Array.to_list
                    (Array.mapi (fun i l -> (l, Json.Int counts.(i))) reason_labels)))
          s.t_sites));
  ]
