(** Minimal growable array (OCaml 5.1 has no stdlib Dynarray). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] is a size hint: the backing array is allocated at that
    size on the first {!push} (growable arrays can't preallocate ['a]
    slots without a value). Purely an allocation hint — observable
    behaviour is identical for any value, including the default [0]. *)

val length : 'a t -> int
val push : 'a t -> 'a -> int
(** Append; returns the index of the new element. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
