module Cmac = Asc_crypto.Cmac

type record = {
  seq : int;
  entry : Json.t;
  mac : string;
}

type t = {
  key : Cmac.key;
  ring : record Ring.t;
  genesis : string;
  mutable anchor_seq : int;   (* seq of the last evicted record; 0 = genesis *)
  mutable anchor_mac : string;
  mutable head : string;      (* chain value of the newest record *)
  mutable next_seq : int;
}

let genesis_of key = Cmac.mac key "asc-authlog/v1/genesis"

let create ~key ?(capacity = 4096) () =
  let genesis = genesis_of key in
  { key;
    ring = Ring.create ~capacity;
    genesis;
    anchor_seq = 0;
    anchor_mac = genesis;
    head = genesis;
    next_seq = 1 }

let append t entry =
  (* the record about to be evicted becomes the verification anchor: its
     chain value commits to the whole dropped prefix *)
  if Ring.length t.ring = Ring.capacity t.ring then begin
    match Ring.peek_oldest t.ring with
    | Some r ->
      t.anchor_seq <- r.seq;
      t.anchor_mac <- r.mac
    | None -> ()
  end;
  let mac = Cmac.mac t.key (t.head ^ Json.to_string entry) in
  Ring.push t.ring { seq = t.next_seq; entry; mac };
  t.head <- mac;
  t.next_seq <- t.next_seq + 1

let length t = Ring.length t.ring
let appended t = t.next_seq - 1
let head_mac t = t.head

(* ----- export ----- *)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* strict inverse of [hex]: lowercase digits only, so there is exactly one
   accepted encoding of each MAC (uppercase would give tampered bytes that
   decode to the same value) *)
let unhex s =
  let digit = function
    | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  if String.length s mod 2 <> 0 then None
  else
    try
      Some
        (String.init (String.length s / 2) (fun i ->
             match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
             | Some hi, Some lo -> Char.chr ((hi lsl 4) lor lo)
             | _ -> raise Exit))
    with Exit -> None

let export_string t =
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  line
    (Json.Obj
       [ ("kind", Json.Str "authlog");
         ("version", Json.Int 1);
         ("anchor_seq", Json.Int t.anchor_seq);
         ("anchor_mac", Json.Str (hex t.anchor_mac)) ]);
  Ring.iter
    (fun r ->
      line
        (Json.Obj
           [ ("kind", Json.Str "record");
             ("seq", Json.Int r.seq);
             ("entry", r.entry);
             ("mac", Json.Str (hex r.mac)) ]))
    t.ring;
  line
    (Json.Obj
       [ ("kind", Json.Str "head");
         ("seq", Json.Int (t.next_seq - 1));
         ("mac", Json.Str (hex t.head)) ]);
  Buffer.contents buf

let export_file t path =
  let oc = open_out_bin path in
  output_string oc (export_string t);
  close_out oc

(* ----- verification ----- *)

type verify_error = {
  ve_line : int;
  ve_seq : int option;
  ve_what : string;
}

let pp_verify_error ppf e =
  Format.fprintf ppf "line %d%s: %s" e.ve_line
    (match e.ve_seq with Some s -> Printf.sprintf " (seq %d)" s | None -> "")
    e.ve_what

let verify_records ~key ~anchor_seq ~anchor_mac records =
  let err line seq what = Error { ve_line = line; ve_seq = seq; ve_what = what } in
  let rec go line prev_seq prev_mac count = function
    | [] -> Ok count
    | r :: rest ->
      if r.seq <> prev_seq + 1 then
        err line (Some r.seq)
          (Printf.sprintf "sequence break: expected seq %d (reordered or dropped record)"
             (prev_seq + 1))
      else begin
        let expect = Cmac.mac key (prev_mac ^ Json.to_string r.entry) in
        if not (Cmac.equal_tags expect r.mac) then
          err line (Some r.seq) "chain MAC mismatch (record tampered or out of order)"
        else go (line + 1) r.seq r.mac (count + 1) rest
      end
  in
  go 1 anchor_seq anchor_mac 0 records

let verify_string ?expect_head ~key input =
  let err line seq what = Error { ve_line = line; ve_seq = seq; ve_what = what } in
  let lines =
    String.split_on_char '\n' input
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  let parsed =
    List.map
      (fun (n, l) -> match Json.parse l with Ok j -> Ok (n, j) | Error e -> Error (n, e))
      lines
  in
  let ( let* ) = Result.bind in
  let first_parse_error =
    List.find_map (function Error (n, e) -> Some (n, e) | Ok _ -> None) parsed
  in
  match first_parse_error with
  | Some (n, e) -> err n None ("unparseable line: " ^ e)
  | None ->
    let docs = List.filter_map (function Ok d -> Some d | Error _ -> None) parsed in
    let kind_of j = Option.bind (Json.member "kind" j) Json.to_str in
    (match docs with
     | [] -> err 1 None "empty log (no header)"
     | (hline, header) :: rest ->
       let* anchor_seq, anchor_mac =
         if kind_of header <> Some "authlog" then err hline None "missing authlog header"
         else if Option.bind (Json.member "version" header) Json.to_int <> Some 1 then
           err hline None "unsupported authlog version"
         else
           match
             ( Option.bind (Json.member "anchor_seq" header) Json.to_int,
               Option.bind (Json.member "anchor_mac" header) Json.to_str )
           with
           | Some s, Some m ->
             (match unhex m with
              | Some raw when String.length raw = Cmac.tag_len -> Ok (s, raw)
              | _ -> err hline None "malformed anchor MAC")
           | _ -> err hline None "header missing anchor fields"
       in
       let* trailer, record_lines =
         match List.rev rest with
         | [] -> err (hline + 1) None "truncated log: no records and no head trailer"
         | (tline, t) :: rev_records ->
           if kind_of t <> Some "head" then
             err tline None "truncated log: last line is not the head trailer"
           else Ok ((tline, t), List.rev rev_records)
       in
       let* records =
         List.fold_left
           (fun acc (n, j) ->
             let* acc = acc in
             if kind_of j <> Some "record" then err n None "unexpected line kind"
             else
               match
                 ( Option.bind (Json.member "seq" j) Json.to_int,
                   Json.member "entry" j,
                   Option.bind (Json.member "mac" j) Json.to_str )
               with
               | Some seq, Some entry, Some mac_hex ->
                 (match unhex mac_hex with
                  | Some mac when String.length mac = Cmac.tag_len ->
                    Ok ((n, { seq; entry; mac }) :: acc)
                  | _ -> err n (Some seq) "malformed record MAC")
               | _ -> err n None "record missing seq/entry/mac")
           (Ok []) record_lines
         |> Result.map List.rev
       in
       (* re-derive the chain from the anchor *)
       let* count =
         match verify_records ~key ~anchor_seq ~anchor_mac (List.map snd records) with
         | Ok n -> Ok n
         | Error e ->
           (* map the record index back to its file line *)
           let line =
             match List.nth_opt records (e.ve_line - 1) with
             | Some (n, _) -> n
             | None -> e.ve_line
           in
           Error { e with ve_line = line }
       in
       let last_seq, last_mac =
         match List.rev records with
         | (_, r) :: _ -> (r.seq, r.mac)
         | [] -> (anchor_seq, anchor_mac)
       in
       let tline, t = trailer in
       (match
          ( Option.bind (Json.member "seq" t) Json.to_int,
            Option.bind (Json.member "mac" t) Json.to_str )
        with
        | Some seq, Some mac_hex ->
          (match unhex mac_hex with
           | Some mac when String.length mac = Cmac.tag_len ->
             if seq <> last_seq then
               err tline (Some seq)
                 (Printf.sprintf "truncated log: head claims seq %d but last record is %d" seq
                    last_seq)
             else if not (Cmac.equal_tags mac last_mac) then
               err tline (Some seq) "head MAC does not match the chain (tail tampered)"
             else begin
               match expect_head with
               | Some h when String.lowercase_ascii h <> hex mac ->
                 err tline (Some seq)
                   "head MAC differs from the expected head (log truncated to an older \
                    prefix)"
               | _ -> Ok count
             end
           | _ -> err tline None "malformed head MAC")
        | _ -> err tline None "head trailer missing seq/mac"))
