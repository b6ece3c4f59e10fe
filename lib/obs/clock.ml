type t = { mutable now : int }

let create ?(start = 0) () = { now = start }
let now t = t.now
let advance t n = t.now <- t.now + n
