(* Bounded LRU cache of *successful* authenticated-string verifications.

   Soundness rests on the entry: (pid, full string contents, supplied
   MAC), where the contents are every byte the string MAC covered and the
   pid provides lifecycle isolation. A hit therefore proves "CMAC(k,
   bytes) = mac was checked before for exactly these bytes", so replaying
   the comparison is redundant; any tampering with the covered bytes or
   the tag changes the entry and misses. Only successful verifications are
   remembered: the deny path always recomputes, so denials are
   byte-identical with the cache on or off. *)

type entry = {
  e_pid : int;
  e_bytes : string;
  e_mac : string;
}

(* intrusive doubly-linked LRU list; head = most recently used *)
type node = {
  n_entry : entry;
  mutable n_prev : node option;
  mutable n_next : node option;
}

type t = {
  capacity : int;
  tbl : (entry, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable saved : int;
  ctr_hits : Asc_obs.Metrics.counter;
  ctr_misses : Asc_obs.Metrics.counter;
  ctr_evictions : Asc_obs.Metrics.counter;
  ctr_invalidations : Asc_obs.Metrics.counter;
  g_size : Asc_obs.Metrics.gauge;
  g_saved : Asc_obs.Metrics.gauge;
}

let create ?(capacity = 1024) ~registry () =
  if capacity < 1 then invalid_arg "Vcache.create: capacity must be >= 1";
  { capacity;
    tbl = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    saved = 0;
    ctr_hits = Asc_obs.Metrics.counter registry "vcache.hits" ~help:"verified-MAC cache hits";
    ctr_misses = Asc_obs.Metrics.counter registry "vcache.misses";
    ctr_evictions = Asc_obs.Metrics.counter registry "vcache.evictions";
    ctr_invalidations =
      Asc_obs.Metrics.counter registry "vcache.invalidations"
        ~help:"entries dropped on execve / process teardown";
    g_size = Asc_obs.Metrics.gauge registry "vcache.size";
    g_saved =
      Asc_obs.Metrics.gauge registry "vcache.cycles_saved"
        ~help:"modeled CMAC cycles skipped by cache hits" }

let size t = Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let invalidations t = t.invalidations
let cycles_saved t = t.saved

let unlink t n =
  (match n.n_prev with Some p -> p.n_next <- n.n_next | None -> t.head <- n.n_next);
  (match n.n_next with Some s -> s.n_prev <- n.n_prev | None -> t.tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front t n =
  n.n_next <- t.head;
  (match t.head with Some h -> h.n_prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let set_size t = Asc_obs.Metrics.set t.g_size (Hashtbl.length t.tbl)

let check t ~pid ~bytes ~mac =
  match Hashtbl.find_opt t.tbl { e_pid = pid; e_bytes = bytes; e_mac = mac } with
  | Some n ->
    unlink t n;
    push_front t n;
    t.hits <- t.hits + 1;
    Asc_obs.Metrics.inc t.ctr_hits;
    true
  | None ->
    t.misses <- t.misses + 1;
    Asc_obs.Metrics.inc t.ctr_misses;
    false

let remember t ~pid ~bytes ~mac =
  let e = { e_pid = pid; e_bytes = bytes; e_mac = mac } in
  if not (Hashtbl.mem t.tbl e) then begin
    if Hashtbl.length t.tbl >= t.capacity then begin
      match t.tail with
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.n_entry;
        t.evictions <- t.evictions + 1;
        Asc_obs.Metrics.inc t.ctr_evictions
      | None -> ()
    end;
    let n = { n_entry = e; n_prev = None; n_next = None } in
    push_front t n;
    Hashtbl.replace t.tbl e n;
    set_size t
  end

let note_saved t n =
  t.saved <- t.saved + n;
  Asc_obs.Metrics.set t.g_saved t.saved

let invalidate_pid t pid =
  let doomed =
    Hashtbl.fold
      (fun e n acc -> if e.e_pid = pid then (e, n) :: acc else acc)
      t.tbl []
  in
  List.iter
    (fun (e, n) ->
      unlink t n;
      Hashtbl.remove t.tbl e;
      t.invalidations <- t.invalidations + 1;
      Asc_obs.Metrics.inc t.ctr_invalidations)
    doomed;
  set_size t
