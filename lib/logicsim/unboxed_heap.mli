(** Unboxed struct-of-arrays bucket calendar of timed integer payloads.

    The allocation-free core both simulation kernels schedule through. The
    kernels only ever hold a handful of *distinct* event times at once
    (gate delays span a short horizon), so instead of a comparison heap the
    queue keeps a short sorted [float array] of distinct times, each paired
    with a FIFO of payload words in flat [int array]s: popping is O(1) with
    no sift, pushing is a short scan from the back of the sorted array, and
    steady-state operation never allocates (retired FIFO storage is pooled
    and reused).

    Pop order is the (time, insertion order) total order, exactly like the
    reference simulator's boxed queue in the test oracles: entries at bit-identical times drain FIFO, buckets
    drain in ascending time order. A kernel built on either queue commits
    events in the same sequence. Times must not be NaN. Popping deposits
    the entry into three scratch cells read with
    {!top_time}/{!top_a}/{!top_b} instead of returning a tuple. *)

type t

val create : unit -> t

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Drop every entry (capacity is kept). Also resets the tie-break
    insertion counter. *)

val push : t -> time:float -> a:int -> b:int -> unit
(** Schedule payload words [a] and [b] at [time]. *)

val pop : t -> bool
(** Remove the earliest entry, exposing it through {!top_time}, {!top_a}
    and {!top_b}; [false] when the heap is empty (scratch cells are then
    stale). *)

val top_time : t -> float
val top_a : t -> int
val top_b : t -> int
(** The entry removed by the last successful {!pop}. *)

val peek_time : t -> float option
(** Earliest scheduled time without removing the entry. *)
