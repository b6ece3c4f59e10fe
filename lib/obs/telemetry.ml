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

(* What the recorded calls add up to: the plane's one set of counts,
   which every [record] adds to. A site's array holds its per-reason
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

(* A pid's shard is its ledger only: its calls' counts are in the plane's. *)
type shard = ledger_entry Ring.t

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
  shards : (int, shard) Hashtbl.t;  (* live pid -> its ledger *)
  counts : counts;                  (* every call recorded, live and retired pids alike *)
  mutable retired_shards : int;
}

(* Every per-syscall cycle histogram shares one ladder of bucket bounds.
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
  { ring_capacity; shards = Hashtbl.create 16; counts = new_counts (); retired_shards = 0 }

let shard t ~pid =
  match Hashtbl.find t.shards pid with
  | sh -> sh
  | exception Not_found ->
    let sh = Ring.create ~capacity:t.ring_capacity in
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

let add_deny c step =
  Hashtbl.replace c.c_deny step
    (1 + match Hashtbl.find c.c_deny step with m -> m | exception Not_found -> 0)

let record t ?(cf = Cf_none) sh ~site ~sem ~reason ~cycles ~alloc ~now =
  let c = t.counts in
  let idx = reason_index reason in
  c.c_reasons.(idx) <- c.c_reasons.(idx) + 1;
  let cfi = cf_index cf in
  c.c_cf.(cfi) <- c.c_cf.(cfi) + 1;
  c.c_calls <- c.c_calls + 1;
  c.c_cycles <- c.c_cycles + cycles;
  (match reason with Deny step -> add_deny c step | _ -> ());
  mhist_observe cycle_bounds (sem_hist c sem) cycles;
  mhist_observe alloc_bounds c.c_alloc alloc;
  let row = site_counts c site in
  row.(idx) <- row.(idx) + 1;
  row.(site_alloc_slot) <- row.(site_alloc_slot) + alloc;
  Ring.push sh
    { le_site = site; le_sem = sem; le_reason = reason; le_cycles = cycles;
      le_alloc = alloc; le_ts = now }

let note_self t n = t.counts.c_self <- t.counts.c_self + n

(* The hashtables are exported as sorted assoc lists, so two aggregates
   of the same calls compare structurally equal whatever order the keys
   arrived in. *)
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

(* Not inlined: perfbench's [Main] calls it, and inlining it there moves
   the calibration loop linked after [Main] in the binary. *)
let[@inline never] aggregate t =
  stats_of_counts ~shards:(t.retired_shards + Hashtbl.length t.shards) t.counts

let reasons_total s = Array.fold_left ( + ) 0 s.t_reasons
let cf_total s = Array.fold_left ( + ) 0 s.t_cf

(* The pid's counts are already in the plane's: retiring drops its
   ledger, with one lookup. *)
let retire_pid t ~pid =
  let live = Hashtbl.length t.shards in
  Hashtbl.remove t.shards pid;
  if Hashtbl.length t.shards < live then t.retired_shards <- t.retired_shards + 1

let ledger t ~pid =
  match Hashtbl.find_opt t.shards pid with
  | Some sh -> Ring.to_list sh
  | None -> []

let live_pids t =
  List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) t.shards [])

let self_cycles t = t.counts.c_self

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
    ("alloc", quantiles alloc_bounds "words" s.t_alloc);
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
