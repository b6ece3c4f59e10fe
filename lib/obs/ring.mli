(** A bounded ring buffer.

    Replaces the kernel's previously unbounded trace and audit lists: long
    Andrew or scale runs push millions of entries, so retention is capped
    at a fixed capacity while [pushed] keeps the exact total for counting.

    The slots grow as elements arrive: a new ring holds none, the first
    push makes 8 (or [capacity], if fewer), and a push into full slots
    doubles them, up to [capacity]. So a ring costs what it retains: a
    kernel that never traces allocates no trace slots, and a telemetry
    ledger of a few calls a few words. Push is O(1) amortized and
    allocates only when the slots grow; a ring at capacity evicts its
    oldest element in place. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Appends, evicting the oldest element when full. *)

val length : 'a t -> int
(** Elements currently retained ([<= capacity]). *)

val pushed : 'a t -> int
(** Total elements ever pushed (never decreases, survives eviction;
    {!clear} resets it). *)

val dropped : 'a t -> int
(** [pushed - length]: elements lost to eviction since the last clear. *)

val clear : 'a t -> unit
(** Drops every element and the slots with them. *)

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest first. *)
