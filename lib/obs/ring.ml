type 'a t = {
  slots : 'a option array;
  mutable start : int;   (* index of the oldest element *)
  mutable len : int;
  mutable pushed : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { slots = Array.make capacity None; start = 0; len = 0; pushed = 0 }

let length t = t.len
let pushed t = t.pushed
let dropped t = t.pushed - t.len

let push t x =
  let cap = Array.length t.slots in
  if t.len < cap then begin
    t.slots.((t.start + t.len) mod cap) <- Some x;
    t.len <- t.len + 1
  end
  else begin
    t.slots.(t.start) <- Some x;
    t.start <- (t.start + 1) mod cap
  end;
  t.pushed <- t.pushed + 1

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.start <- 0;
  t.len <- 0;
  t.pushed <- 0

let iter f t =
  let cap = Array.length t.slots in
  for i = 0 to t.len - 1 do
    match t.slots.((t.start + i) mod cap) with
    | Some x -> f x
    | None -> ()
  done

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)
