(* Snapshots of the simulated filesystem: which files a job wrote, and the
   state every round of a workload starts from. No workload creates
   symbolic links, so entries are directories and files. *)

open Oskernel

type entry =
  | Dir
  | File of string

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

(* Every path below "/" with its entry, sorted by path (parents first). *)
let snapshot vfs =
  let acc = ref [] in
  let rec walk dir =
    match Vfs.readdir vfs ~cwd:"/" dir with
    | Error _ -> ()
    | Ok names ->
      List.iter
        (fun name ->
          let p = join dir name in
          if Vfs.is_dir vfs ~cwd:"/" p then begin
            acc := (p, Dir) :: !acc;
            walk p
          end
          else
            match Vfs.read_file vfs ~cwd:"/" p with
            | Ok c -> acc := (p, File c) :: !acc
            | Error _ -> ())
        names
  in
  walk "/";
  List.sort compare !acc

(* One digest per path: enough to tell what a job changed. *)
let digests vfs =
  List.map
    (fun (p, e) -> (p, match e with Dir -> "dir" | File c -> Digest.string c))
    (snapshot vfs)

(* Paths whose digest changed between two [digests] lists, with the new
   digest ([None] when the path is gone). *)
let diff before after =
  let rec go acc b a =
    match (b, a) with
    | [], [] -> List.rev acc
    | (p, _) :: b', [] -> go ((p, None) :: acc) b' []
    | [], (p, d) :: a' -> go ((p, Some d) :: acc) [] a'
    | (pb, db) :: b', (pa, da) :: a' ->
      let c = compare pb pa in
      if c = 0 then go (if db = da then acc else (pa, Some da) :: acc) b' a'
      else if c < 0 then go ((pb, None) :: acc) b' a
      else go ((pa, Some da) :: acc) b a'
  in
  go [] before after

(* Put the filesystem back to [base]: remove what [base] lacks or holds as
   the other kind (children before parents), then recreate or rewrite what
   differs. *)
let restore vfs ~base =
  let current = snapshot vfs in
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun (p, e) -> Hashtbl.replace base_tbl p e) base;
  let extra =
    List.filter
      (fun (p, e) ->
        match (Hashtbl.find_opt base_tbl p, e) with
        | Some Dir, Dir | Some (File _), File _ -> false
        | _ -> true)
      current
  in
  List.iter
    (fun (p, e) ->
      ignore
        (match e with
         | Dir -> Vfs.rmdir vfs ~cwd:"/" p
         | File _ -> Vfs.unlink vfs ~cwd:"/" p))
    (List.sort (fun (a, _) (b, _) -> compare b a) extra);
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun (p, e) -> Hashtbl.replace cur_tbl p e) current;
  List.iter
    (fun (p, e) ->
      let now = Hashtbl.find_opt cur_tbl p in
      match e with
      | Dir -> if now <> Some Dir then Vfs.mkdir_p vfs p
      | File c ->
        if now <> Some (File c) then ignore (Vfs.create_file vfs ~cwd:"/" p ~contents:c))
    base
