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
