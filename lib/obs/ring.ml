(* The slots start empty and grow as elements arrive: the first push makes
   [initial] slots (or [capacity], if fewer), and each push into full
   slots below the capacity doubles them, up to the capacity. Nothing is
   evicted before the slots reach the capacity, so while they grow the
   oldest element sits at slot 0. *)
type 'a t = {
  mutable slots : 'a array;  (* [||] until the first push, and after a clear *)
  capacity : int;
  mutable start : int;       (* index of the oldest element *)
  mutable len : int;
  mutable pushed : int;
}

let initial = 8

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { slots = [||]; capacity; start = 0; len = 0; pushed = 0 }

let length t = t.len
let pushed t = t.pushed
let dropped t = t.pushed - t.len

(* The new slots are filled with [x], the element about to go in at
   [len]: an array needs some element, and this one is retained anyway. *)
let grow t x =
  let slots = Array.make (min t.capacity (max initial (2 * t.len))) x in
  Array.blit t.slots 0 slots 0 t.len;
  t.slots <- slots

let push t x =
  let n = Array.length t.slots in
  if t.len < t.capacity then begin
    if t.len = n then grow t x;
    t.slots.(t.len) <- x;
    t.len <- t.len + 1
  end
  else begin
    t.slots.(t.start) <- x;
    t.start <- (t.start + 1) mod n
  end;
  t.pushed <- t.pushed + 1

let clear t =
  t.slots <- [||];
  t.start <- 0;
  t.len <- 0;
  t.pushed <- 0

let iter f t =
  let n = Array.length t.slots in
  for i = 0 to t.len - 1 do
    f t.slots.((t.start + i) mod n)
  done

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)
