(* Per-pid cache of *successful* authenticated-string verifications.

   Soundness rests on the entry: the full string contents, every byte the
   string MAC covered, together with the tag that verified over them. A
   hit therefore proves "CMAC(k, bytes) = mac was checked before for
   exactly these bytes", so replaying the comparison is redundant; any
   tampering with the covered bytes or the tag misses. The pair is stored
   as contents -> tag: under the checker's one key the verified tag is a
   function of the contents, so one slot per contents loses nothing, and
   a probe builds no key. Only successful verifications are remembered:
   the deny path always recomputes, so denials are byte-identical with the
   cache on or off. *)

module Metrics = Asc_obs.Metrics

type t = {
  strings : (string, string) Pid_table.t;  (* contents -> verified tag *)
  hits : Metrics.counter;
  misses : Metrics.counter;
}

let create ~registry () =
  { strings = Pid_table.create registry ~prefix:"vcache";
    hits = Metrics.counter registry "vcache.hits" ~help:"verified-MAC cache hits";
    misses = Metrics.counter registry "vcache.misses" }

(* constant-time on the tag, like every other comparison against a
   verified MAC *)
let check t ~pid ~bytes ~mac =
  match Pid_table.find t.strings ~pid bytes with
  | tag when Asc_crypto.Cmac.equal_tags tag mac ->
    Metrics.inc t.hits;
    true
  | _ | (exception Not_found) ->
    Metrics.inc t.misses;
    false

let remember t ~pid ~bytes ~mac = Pid_table.add t.strings ~pid bytes mac
let drop_pid t pid = Pid_table.drop_pid t.strings pid
let note_saved t n = Pid_table.note_saved t.strings n
let size t = Pid_table.size t.strings
let hits t = Metrics.counter_value t.hits
let misses t = Metrics.counter_value t.misses
let evictions t = Pid_table.evictions t.strings
let invalidations t = Pid_table.invalidations t.strings
let cycles_saved t = Pid_table.cycles_saved t.strings
