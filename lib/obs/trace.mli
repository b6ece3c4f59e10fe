(** Lightweight span tracing with deterministic timestamps.

    A collector holds complete spans ("X" events in Chrome trace-event
    terms) in a bounded ring. Timestamps come from whatever deterministic
    clock the instrumented layer owns — machine cycles in the kernel, a
    {!Clock} advanced by work units in the installer — never the wall
    clock, so a given run always produces byte-identical traces.

    Exporters: Chrome trace-event JSON (loadable in [chrome://tracing] /
    Perfetto), JSON-lines (one event object per line), and a per-name
    aggregate summary for terminals. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_track : int;  (** rendered as the Chrome [tid]; the kernel uses the pid *)
  ev_ts : int;     (** deterministic start timestamp *)
  ev_dur : int;
  ev_args : (string * Json.t) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Bounded collector; default capacity 65536 events. *)

val name_process : t -> string -> unit
(** Label the collector's (single) process; rendered as a ["ph":"M"]
    [process_name] metadata event by {!to_chrome}. *)

val name_track : t -> track:int -> string -> unit
(** Label a track (e.g. a kernel pid with its program name); rendered as a
    [thread_name] metadata event by {!to_chrome}. Names are identity, not
    events: they survive {!clear} and ring eviction. *)

val track_name : t -> track:int -> string option

val complete :
  t -> ?cat:string -> ?track:int -> ?args:(string * Json.t) list ->
  name:string -> ts:int -> dur:int -> unit -> unit
(** Record an already-measured span. *)

val span :
  t -> ?cat:string -> ?track:int -> ?args:(string * Json.t) list ->
  clock:Clock.t -> string -> (unit -> 'a) -> 'a
(** [span t ~clock name f] runs [f], stamping the span from [clock] before
    and after — [f] (or the instrumented code it calls) is responsible for
    advancing the clock by its work measure. The span is recorded even if
    [f] raises. *)

val events : t -> event list
(** Retained events, oldest first. *)

val length : t -> int
val dropped : t -> int
val clear : t -> unit

(** {1 Exporters} *)

val to_chrome : t -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ns"}] with one ["ph":"X"]
    event per span; timestamps are the deterministic clock values.
    {!name_process} / {!name_track} labels lead the list as ["ph":"M"]
    metadata events so chrome://tracing shows names instead of bare
    pid/tid numbers. *)

val chrome_string : t -> string

val to_json_lines : t -> string
(** One compact JSON object per line, oldest first. *)
