(** Priority queue of scheduled net transitions (binary min-heap).

    Ties in time are broken by insertion order, making simulation
    deterministic. Cancellation (inertial-delay behaviour) is handled by the
    simulator via serial numbers; the queue itself only orders events.

    Stored as struct-of-arrays — times in a flat [float array], insertion
    orders in an [int array] — so a push allocates nothing beyond occasional
    capacity doubling. {!Logicsim.Unboxed_heap} is the fully unboxed
    (int-payload) variant the compiled kernel schedules through; this
    polymorphic form backs the reference simulator. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Earliest event, [None] when empty. *)

val peek_time : 'a t -> float option
