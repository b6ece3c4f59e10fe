let number_of = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let within ~tolerance a b =
  Float.abs (a -. b) <= tolerance /. 100. *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let kind = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Int _ | Json.Float _ -> "number"
  | Json.Str _ -> "string"
  | Json.List _ -> "list"
  | Json.Obj _ -> "object"

let compare ~tolerance ?(tolerance_abs = 0.) ~baseline ~actual () =
  let problems = ref [] in
  let fail path fmt =
    Format.kasprintf (fun msg -> problems := Printf.sprintf "%s: %s" path msg :: !problems) fmt
  in
  let drift b a = if b = 0. then Float.infinity else 100. *. (a -. b) /. Float.abs b in
  let rec go path base act =
    match number_of base, number_of act with
    | Some b, Some a ->
      (* the global absolute floor rescues near-zero fields where any
         change is a huge percentage; a field passes on either criterion *)
      if not (within ~tolerance b a || Float.abs (a -. b) <= tolerance_abs) then
        fail path "%g outside %g%% tolerance of baseline %g (drift %+.2f%%)" a tolerance b
          (drift b a)
    | _ ->
      (match base, act with
       | Json.Null, Json.Null -> ()
       | Json.Bool b, Json.Bool a -> if b <> a then fail path "expected %b, got %b" b a
       | Json.Str b, Json.Str a -> if b <> a then fail path "expected %S, got %S" b a
       | Json.List bs, Json.List as_ ->
         if List.length bs <> List.length as_ then
           fail path "list length changed: baseline %d, got %d" (List.length bs)
             (List.length as_)
         else
           List.iteri
             (fun i (b, a) -> go (Printf.sprintf "%s[%d]" path i) b a)
             (List.combine bs as_)
       | Json.Obj bs, Json.Obj as_ ->
         let keys l = List.sort Stdlib.compare (List.map fst l) in
         let bkeys = keys bs and akeys = keys as_ in
         if bkeys <> akeys then begin
           let missing = List.filter (fun k -> not (List.mem k akeys)) bkeys in
           let extra = List.filter (fun k -> not (List.mem k bkeys)) akeys in
           List.iter (fun k -> fail path "missing key %S" k) missing;
           List.iter (fun k -> fail path "unexpected key %S" k) extra
         end
         else
           List.iter
             (fun (k, b) -> go (path ^ "." ^ k) b (List.assoc k as_))
             bs
       | b, a -> fail path "kind changed: baseline %s, got %s" (kind b) (kind a))
  in
  go "$" baseline actual;
  match List.rev !problems with [] -> Ok () | ps -> Error ps
