type file = { mutable data : Bytes.t }

type node =
  | File of file
  | Dir of (string, node) Hashtbl.t
  | Symlink of string

type t = { root : (string, node) Hashtbl.t }

type stat = { st_size : int; st_kind : [ `File | `Dir | `Symlink ] }

let create () = { root = Hashtbl.create 16 }

let ( let* ) = Result.bind

let split_path path = List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' path)

let absolute ~cwd path = if String.length path > 0 && path.[0] = '/' then path else cwd ^ "/" ^ path

(* Resolve a path to canonical components. [keep_last_symlink] controls
   whether a symlink in the final component is followed (open/read) or kept
   (readlink/unlink/lstat-style access). *)
let resolve_components fs ~cwd ~keep_last_symlink path =
  let max_links = 16 in
  let rec walk canonical node remaining budget =
    if budget < 0 then Error Errno.ELOOP
    else
      match remaining with
      | [] -> Ok (List.rev canonical)
      | ".." :: rest ->
        (match canonical with
         | [] -> walk [] node rest budget (* /.. = / *)
         | _ :: up ->
           (* re-walk from the root along the shortened canonical prefix *)
           let prefix = List.rev up in
           walk_from_root prefix rest budget)
      | comp :: rest ->
        (match node with
         | Dir entries ->
           (match Hashtbl.find_opt entries comp with
            | None ->
              (* the final component may be absent (creation target) *)
              if rest = [] then Ok (List.rev (comp :: canonical)) else Error Errno.ENOENT
            | Some (Symlink target) when rest <> [] || not keep_last_symlink ->
              let target_comps = split_path target in
              if String.length target > 0 && target.[0] = '/' then
                walk_from_root_follow target_comps rest (budget - 1)
              else walk_from_canonical canonical target_comps rest (budget - 1)
            | Some child -> walk (comp :: canonical) child rest budget)
         | File _ | Symlink _ -> Error Errno.ENOTDIR)
  and walk_from_root comps rest budget =
    (* walk the canonical prefix (already resolved, no symlinks) then rest *)
    let rec descend canonical node = function
      | [] -> walk canonical node rest budget
      | c :: more ->
        (match node with
         | Dir entries ->
           (match Hashtbl.find_opt entries c with
            | Some child -> descend (c :: canonical) child more
            | None -> Error Errno.ENOENT)
         | File _ | Symlink _ -> Error Errno.ENOTDIR)
    in
    descend [] (Dir fs.root) comps
  and walk_from_root_follow comps rest budget =
    (* absolute symlink target: restart from root with target ++ rest *)
    walk [] (Dir fs.root) (comps @ rest) budget
  and walk_from_canonical canonical comps rest budget =
    (* relative symlink target: resolve against the link's directory *)
    let dir_prefix = List.rev canonical in
    let rec descend can node = function
      | [] -> walk can node (comps @ rest) budget
      | c :: more ->
        (match node with
         | Dir entries ->
           (match Hashtbl.find_opt entries c with
            | Some child -> descend (c :: can) child more
            | None -> Error Errno.ENOENT)
         | File _ | Symlink _ -> Error Errno.ENOTDIR)
    in
    descend [] (Dir fs.root) dir_prefix
  in
  walk [] (Dir fs.root) (split_path (absolute ~cwd path)) max_links

let components_to_path comps = "/" ^ String.concat "/" comps

let normalize fs ~cwd path =
  let* comps = resolve_components fs ~cwd ~keep_last_symlink:false path in
  Ok (components_to_path comps)

(* Locate the parent directory table and leaf name of a canonical path. *)
let parent_and_leaf fs comps =
  match List.rev comps with
  | [] -> Error Errno.EINVAL
  | leaf :: rev_parents ->
    let rec descend tbl = function
      | [] -> Ok (tbl, leaf)
      | c :: more ->
        (match Hashtbl.find_opt tbl c with
         | Some (Dir sub) -> descend sub more
         | Some (File _ | Symlink _) -> Error Errno.ENOTDIR
         | None -> Error Errno.ENOENT)
    in
    descend fs.root (List.rev rev_parents)

let lookup fs ~cwd ~keep_last_symlink path =
  let* comps = resolve_components fs ~cwd ~keep_last_symlink path in
  if comps = [] then Ok (Dir fs.root)
  else
    let* tbl, leaf = parent_and_leaf fs comps in
    match Hashtbl.find_opt tbl leaf with
    | Some n -> Ok n
    | None -> Error Errno.ENOENT

let stat fs ~cwd path =
  let* n = lookup fs ~cwd ~keep_last_symlink:false path in
  match n with
  | File f -> Ok { st_size = Bytes.length f.data; st_kind = `File }
  | Dir _ -> Ok { st_size = 0; st_kind = `Dir }
  | Symlink _ -> Ok { st_size = 0; st_kind = `Symlink }

let exists fs ~cwd path = Result.is_ok (lookup fs ~cwd ~keep_last_symlink:false path)

let is_dir fs ~cwd path =
  match lookup fs ~cwd ~keep_last_symlink:false path with
  | Ok (Dir _) -> true
  | Ok (File _ | Symlink _) | Error _ -> false

let with_parent fs ~cwd path f =
  let* comps = resolve_components fs ~cwd ~keep_last_symlink:true path in
  let* tbl, leaf = parent_and_leaf fs comps in
  f tbl leaf

let mkdir fs ~cwd path =
  with_parent fs ~cwd path (fun tbl leaf ->
      if Hashtbl.mem tbl leaf then Error Errno.EEXIST
      else begin
        Hashtbl.replace tbl leaf (Dir (Hashtbl.create 8));
        Ok ()
      end)

let rmdir fs ~cwd path =
  with_parent fs ~cwd path (fun tbl leaf ->
      match Hashtbl.find_opt tbl leaf with
      | Some (Dir sub) ->
        if Hashtbl.length sub > 0 then Error Errno.ENOTEMPTY
        else begin
          Hashtbl.remove tbl leaf;
          Ok ()
        end
      | Some (File _ | Symlink _) -> Error Errno.ENOTDIR
      | None -> Error Errno.ENOENT)

let symlink fs ~cwd ~target ~linkpath =
  with_parent fs ~cwd linkpath (fun tbl leaf ->
      if Hashtbl.mem tbl leaf then Error Errno.EEXIST
      else begin
        Hashtbl.replace tbl leaf (Symlink target);
        Ok ()
      end)

let readlink fs ~cwd path =
  let* n = lookup fs ~cwd ~keep_last_symlink:true path in
  match n with
  | Symlink target -> Ok target
  | File _ | Dir _ -> Error Errno.EINVAL

let unlink fs ~cwd path =
  with_parent fs ~cwd path (fun tbl leaf ->
      match Hashtbl.find_opt tbl leaf with
      | Some (File _ | Symlink _) ->
        Hashtbl.remove tbl leaf;
        Ok ()
      | Some (Dir _) -> Error Errno.EISDIR
      | None -> Error Errno.ENOENT)

(* resolve both ends before mutating anything, so a failing destination
   cannot lose the source *)
let rename fs ~cwd ~src ~dst =
  let* src_tbl, src_leaf = with_parent fs ~cwd src (fun tbl leaf -> Ok (tbl, leaf)) in
  let* node =
    match Hashtbl.find_opt src_tbl src_leaf with
    | Some n -> Ok n
    | None -> Error Errno.ENOENT
  in
  let* dst_tbl, dst_leaf = with_parent fs ~cwd dst (fun tbl leaf -> Ok (tbl, leaf)) in
  match Hashtbl.find_opt dst_tbl dst_leaf with
  | Some (Dir _) -> Error Errno.EISDIR (* never silently replace a directory *)
  | Some (File _ | Symlink _) | None ->
    Hashtbl.remove src_tbl src_leaf;
    Hashtbl.replace dst_tbl dst_leaf node;
    Ok ()

let create_file fs ~cwd path ~contents =
  with_parent fs ~cwd path (fun tbl leaf ->
      match Hashtbl.find_opt tbl leaf with
      | Some (Dir _) -> Error Errno.EISDIR
      | Some (Symlink _) -> Error Errno.EINVAL (* resolved earlier; defensive *)
      | Some (File f) ->
        f.data <- Bytes.of_string contents;
        Ok ()
      | None ->
        Hashtbl.replace tbl leaf (File { data = Bytes.of_string contents });
        Ok ())

let find_file fs ~cwd path =
  let* n = lookup fs ~cwd ~keep_last_symlink:false path in
  match n with
  | File f -> Ok f
  | Dir _ -> Error Errno.EISDIR
  | Symlink _ -> Error Errno.ELOOP

let read_file fs ~cwd path =
  let* f = find_file fs ~cwd path in
  Ok (Bytes.to_string f.data)

let file_size fs ~cwd path =
  let* f = find_file fs ~cwd path in
  Ok (Bytes.length f.data)

let read_at fs ~cwd path ~pos ~len =
  let* f = find_file fs ~cwd path in
  if pos < 0 || len < 0 then Error Errno.EINVAL
  else begin
    let avail = max 0 (Bytes.length f.data - pos) in
    Ok (Bytes.sub_string f.data (min pos (Bytes.length f.data)) (min len avail))
  end

let max_file_size = 16 * 1024 * 1024

let write_at fs ~cwd path ~pos data =
  let* f = find_file fs ~cwd path in
  if pos < 0 then Error Errno.EINVAL
  (* not [pos + len > max_file_size]: the sum wraps for [pos] near
     [max_int] *)
  else if pos > max_file_size - String.length data then Error Errno.EFBIG
  else begin
    let needed = pos + String.length data in
    if needed > Bytes.length f.data then begin
      let grown = Bytes.make needed '\000' in
      Bytes.blit f.data 0 grown 0 (Bytes.length f.data);
      f.data <- grown
    end;
    Bytes.blit_string data 0 f.data pos (String.length data);
    Ok (String.length data)
  end

let truncate fs ~cwd path =
  let* f = find_file fs ~cwd path in
  f.data <- Bytes.create 0;
  Ok ()

let readdir fs ~cwd path =
  let* n = lookup fs ~cwd ~keep_last_symlink:false path in
  match n with
  | Dir entries ->
    Ok (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) entries []))
  | File _ | Symlink _ -> Error Errno.ENOTDIR

let mkdir_p fs path =
  let comps = split_path path in
  let rec descend tbl = function
    | [] -> ()
    | c :: more ->
      (match Hashtbl.find_opt tbl c with
       | Some (Dir sub) -> descend sub more
       | Some (File _ | Symlink _) ->
         invalid_arg (Printf.sprintf "Vfs.mkdir_p: %s is not a directory" c)
       | None ->
         let sub = Hashtbl.create 8 in
         Hashtbl.replace tbl c (Dir sub);
         descend sub more)
  in
  descend fs.root comps
