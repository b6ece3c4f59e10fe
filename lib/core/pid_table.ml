module Metrics = Asc_obs.Metrics

(* One pid's entries: a chained hash table that starts at [initial]
   buckets and doubles when it holds two entries a bucket, the load at
   which the standard library's tables grow. So a process that verifies a
   few sites costs a few words, where a [Hashtbl] starts at 16 buckets.
   Nothing is removed from a table: the bound empties it and [drop_pid]
   drops it whole. *)
type ('k, 'v) bucket =
  | Nil
  | Cons of { key : 'k; value : 'v; mutable next : ('k, 'v) bucket }

type ('k, 'v) entries = {
  mutable buckets : ('k, 'v) bucket array;
  mutable count : int;
}

type ('k, 'v) t = {
  tables : (int, ('k, 'v) entries) Hashtbl.t;  (* pid -> its entries *)
  none : ('k, 'v) entries;  (* a pid with no table: empty, and never added to *)
  mutable last_pid : int;
  mutable last : ('k, 'v) entries;  (* [last_pid]'s table, or [none] *)
  evictions : Metrics.counter;
  invalidations : Metrics.counter;
  size : Metrics.gauge;
  saved : Metrics.gauge;
}

let bound = 4096
let initial = 4

let create registry ~prefix =
  let name s = prefix ^ "." ^ s in
  let none = { buckets = [| Nil |]; count = 0 } in
  { tables = Hashtbl.create 16;
    none;
    last_pid = 0;
    last = none;
    evictions =
      Metrics.counter registry (name "evictions") ~help:"entries dropped by the per-pid bound";
    invalidations =
      Metrics.counter registry (name "invalidations")
        ~help:"entries dropped on execve / process teardown";
    size = Metrics.gauge registry (name "size");
    saved =
      Metrics.gauge registry (name "cycles_saved") ~help:"modeled cycles skipped by the layer" }

let gauge_add g n = Metrics.set g (Metrics.gauge_value g + n)

(* [pid]'s table, or [t.none]. The pid served last is answered without a
   lookup: a trap asks each layer about the running pid several times. *)
let entries t pid =
  if pid <> t.last_pid then begin
    t.last <- (match Hashtbl.find t.tables pid with es -> es | exception Not_found -> t.none);
    t.last_pid <- pid
  end;
  t.last

let index buckets k = Hashtbl.hash k land (Array.length buckets - 1)

let rec find_from k = function
  | Nil -> raise Not_found
  | Cons c -> if compare c.key k = 0 then c.value else find_from k c.next

let find_in es k = find_from k es.buckets.(index es.buckets k)

(* Moves a chain's cells into [buckets] in place, so a resize allocates
   only the new bucket array. *)
let rec move buckets = function
  | Nil -> ()
  | Cons c as cell ->
    let rest = c.next in
    let i = index buckets c.key in
    c.next <- buckets.(i);
    buckets.(i) <- cell;
    move buckets rest

let find t ~pid k = find_in (entries t pid) k

let mem t ~pid k =
  match find_in (entries t pid) k with
  | _ -> true
  | exception Not_found -> false

let add t ~pid k v =
  let es = entries t pid in
  let es =
    if es != t.none then es
    else begin
      let es = { buckets = Array.make initial Nil; count = 0 } in
      Hashtbl.replace t.tables pid es;
      t.last <- es;
      es
    end
  in
  match find_in es k with
  | _ -> ()
  | exception Not_found ->
    if es.count >= bound then begin
      Metrics.add t.evictions es.count;
      gauge_add t.size (-es.count);
      es.buckets <- Array.make initial Nil;
      es.count <- 0
    end;
    if es.count >= 2 * Array.length es.buckets then begin
      let old = es.buckets in
      es.buckets <- Array.make (2 * Array.length old) Nil;
      Array.iter (move es.buckets) old
    end;
    let i = index es.buckets k in
    es.buckets.(i) <- Cons { key = k; value = v; next = es.buckets.(i) };
    es.count <- es.count + 1;
    gauge_add t.size 1

let drop_pid t pid =
  let es = entries t pid in
  if es != t.none then begin
    Hashtbl.remove t.tables pid;
    t.last <- t.none;
    Metrics.add t.invalidations es.count;
    gauge_add t.size (-es.count)
  end

let note_saved t n = gauge_add t.saved n
let pids t = Hashtbl.length t.tables
let size t = Metrics.gauge_value t.size
let evictions t = Metrics.counter_value t.evictions
let invalidations t = Metrics.counter_value t.invalidations
let cycles_saved t = Metrics.gauge_value t.saved

module Shared = struct
  (* Open addressing with linear probing over twice [bound] slots, so a
     probe ends at an empty slot within a few steps. A lookup allocates
     nothing and an insert one slot. There are no deletions: past the
     bound the whole table is emptied. The slots are allocated by the
     first insert, so creating a monitor allocates none: two eager
     2048-slot arrays made perfbench's hot_loop set-up about 0.1 ms (12%)
     slower on a shared 2-vCPU host. *)
  type 'v slot =
    | Empty
    | Fact of { site : int; block : int; v : 'v }

  type 'v t = {
    mutable slots : 'v slot array;  (* [||] until the first insert *)
    mutable facts : int;
    hits : Metrics.counter;
    evictions : Metrics.counter;
  }

  let bound = 1024

  (* 2 * bound = 2^11 slots *)
  let capacity = 2 * bound

  let create registry ~prefix =
    let name s = prefix ^ "." ^ s in
    { slots = [||];
      facts = 0;
      hits =
        Metrics.counter registry (name "shared_hits")
          ~help:"pid entries made from a fact another process verified";
      evictions =
        Metrics.counter registry (name "shared_evictions")
          ~help:"shared facts dropped by the global bound" }

  (* the top 11 bits of a multiplicative hash, which depend on every bit
     of the site and of the block id (program id included) *)
  let index ~site ~block =
    (((site * 0x1e37_79b9_7f4a_7c15) + block) * 0x3f58_476d_1ce4_e5b9) lsr 52

  let rec find_from t ~site ~block i =
    match t.slots.(i) with
    | Empty -> raise Not_found
    | Fact f ->
      if f.site = site && f.block = block then f.v
      else find_from t ~site ~block ((i + 1) land (capacity - 1))

  let find t ~site ~block =
    if Array.length t.slots = 0 then raise Not_found;
    find_from t ~site ~block (index ~site ~block)

  let rec free_from t i =
    match t.slots.(i) with
    | Empty -> i
    | Fact _ -> free_from t ((i + 1) land (capacity - 1))

  let add t ~site ~block v =
    match find t ~site ~block with
    | _ -> ()
    | exception Not_found ->
      if Array.length t.slots = 0 then t.slots <- Array.make capacity Empty;
      if t.facts >= bound then begin
        Array.fill t.slots 0 capacity Empty;
        Metrics.add t.evictions t.facts;
        t.facts <- 0
      end;
      t.slots.(free_from t (index ~site ~block)) <- Fact { site; block; v };
      t.facts <- t.facts + 1

  let note_hit t = Metrics.inc t.hits
  let size t = t.facts
  let hits t = Metrics.counter_value t.hits
  let evictions t = Metrics.counter_value t.evictions
end
