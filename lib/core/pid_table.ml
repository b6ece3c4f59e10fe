module Metrics = Asc_obs.Metrics

type ('k, 'v) t = {
  tables : (int, ('k, 'v) Hashtbl.t) Hashtbl.t;  (* pid -> its entries *)
  evictions : Metrics.counter;
  invalidations : Metrics.counter;
  size : Metrics.gauge;
  saved : Metrics.gauge;
}

let bound = 4096

let create registry ~prefix =
  let name s = prefix ^ "." ^ s in
  { tables = Hashtbl.create 16;
    evictions =
      Metrics.counter registry (name "evictions") ~help:"entries dropped by the per-pid bound";
    invalidations =
      Metrics.counter registry (name "invalidations")
        ~help:"entries dropped on execve / process teardown";
    size = Metrics.gauge registry (name "size");
    saved =
      Metrics.gauge registry (name "cycles_saved") ~help:"modeled cycles skipped by the layer" }

let gauge_add g n = Metrics.set g (Metrics.gauge_value g + n)

let find t ~pid k = Hashtbl.find (Hashtbl.find t.tables pid) k

let mem t ~pid k =
  match Hashtbl.find t.tables pid with
  | entries -> Hashtbl.mem entries k
  | exception Not_found -> false

let add t ~pid k v =
  let entries =
    match Hashtbl.find t.tables pid with
    | entries -> entries
    | exception Not_found ->
      let entries = Hashtbl.create 16 in
      Hashtbl.replace t.tables pid entries;
      entries
  in
  if not (Hashtbl.mem entries k) then begin
    let n = Hashtbl.length entries in
    if n >= bound then begin
      Hashtbl.reset entries;
      Metrics.add t.evictions n;
      gauge_add t.size (-n)
    end;
    Hashtbl.replace entries k v;
    gauge_add t.size 1
  end

let drop_pid t pid =
  match Hashtbl.find t.tables pid with
  | exception Not_found -> ()
  | entries ->
    let n = Hashtbl.length entries in
    Hashtbl.remove t.tables pid;
    Metrics.add t.invalidations n;
    gauge_add t.size (-n)

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
