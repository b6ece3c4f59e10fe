type event = {
  ev_name : string;
  ev_cat : string;
  ev_track : int;
  ev_ts : int;
  ev_dur : int;
  ev_args : (string * Json.t) list;
}

type t = {
  ring : event Ring.t;
  track_names : (int, string) Hashtbl.t;
  mutable process_name : string option;
}

let create ?(capacity = 65536) () =
  { ring = Ring.create ~capacity; track_names = Hashtbl.create 8; process_name = None }

let name_process t name = t.process_name <- Some name

let name_track t ~track name = Hashtbl.replace t.track_names track name

let track_name t ~track = Hashtbl.find_opt t.track_names track

let complete t ?(cat = "") ?(track = 0) ?(args = []) ~name ~ts ~dur () =
  Ring.push t.ring
    { ev_name = name; ev_cat = cat; ev_track = track; ev_ts = ts; ev_dur = dur; ev_args = args }

let span t ?cat ?track ?args ~clock name f =
  let ts = Clock.now clock in
  let finish () = complete t ?cat ?track ?args ~name ~ts ~dur:(Clock.now clock - ts) () in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let events t = Ring.to_list t.ring
let length t = Ring.length t.ring
let dropped t = Ring.dropped t.ring
let clear t = Ring.clear t.ring

let event_json ev =
  Json.Obj
    [ ("name", Json.Str ev.ev_name);
      ("cat", Json.Str (if ev.ev_cat = "" then "default" else ev.ev_cat));
      ("ph", Json.Str "X");
      ("ts", Json.Int ev.ev_ts);
      ("dur", Json.Int ev.ev_dur);
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.ev_track);
      ("args", Json.Obj ev.ev_args) ]

(* Chrome trace-event metadata ("ph":"M"): process_name labels the single
   simulated process, thread_name labels each track (kernel pids, installer
   phases) so chrome://tracing shows names instead of bare tids. *)
let metadata_events t =
  let process =
    match t.process_name with
    | None -> []
    | Some name ->
      [ Json.Obj
          [ ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("args", Json.Obj [ ("name", Json.Str name) ]) ] ]
  in
  let tracks =
    Hashtbl.fold (fun track name acc -> (track, name) :: acc) t.track_names []
    |> List.sort compare
    |> List.map (fun (track, name) ->
           Json.Obj
             [ ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int track);
               ("args", Json.Obj [ ("name", Json.Str name) ]) ])
  in
  process @ tracks

let to_chrome t =
  Json.Obj
    [ ("traceEvents", Json.List (metadata_events t @ List.map event_json (events t)));
      ("displayTimeUnit", Json.Str "ns") ]

let chrome_string t = Json.to_string (to_chrome t)

let to_json_lines t =
  let buf = Buffer.create 4096 in
  Ring.iter
    (fun ev ->
      Json.to_buffer buf (event_json ev);
      Buffer.add_char buf '\n')
    t.ring;
  Buffer.contents buf
