(** Sobol low-discrepancy sequences (quasi-Monte-Carlo draws).

    Gray-code construction over 32-bit Joe-Kuo direction numbers with an
    optional digital-shift scramble. Points are {e randomly accessible}:
    [point t n] is a pure function of [(t, n)], so deterministic chunked
    parallel generation needs no shared generator state — die [i] receives
    point [i] whatever pool chunk computes it.

    At matched sample count a (scrambled) Sobol sequence estimates smooth
    integrands and quantiles with an error decaying like [(log n)^d / n]
    versus Monte Carlo's [1 / sqrt n] — the variance-reduction lever behind
    the [`Sobol] variation sampler. Combine with {!Stats.normal_quantile}
    for Gaussian draws; Box-Muller would destroy the equidistribution. *)

type t

val max_dims : int
(** Dimensions with built-in direction numbers (currently 8). *)

val create : ?scramble:Rng.t -> dims:int -> unit -> t
(** [create ~dims ()] builds the sequence over [dims] dimensions. With
    [?scramble] a per-dimension 32-bit digital-shift word is drawn from the
    generator (in dimension order — the scramble is a pure function of the
    stream state), decorrelating replicas while preserving the
    low-discrepancy structure. Without it the sequence is the classic
    unshifted one. @raise Invalid_argument if [dims] is outside
    [\[1, max_dims\]]. *)

val dims : t -> int

val point_into : t -> int -> float array -> unit
(** [point_into t n out] writes point [n] (zero-based) into
    [out.(0 .. dims-1)], each coordinate strictly inside (0, 1) (midpoint
    convention, safe under inverse-CDF transforms). Allocation-free.
    @raise Invalid_argument if [n < 0] or [out] is too short. *)

val point : t -> int -> float array
(** Allocating convenience wrapper over {!point_into}. *)

type cursor
(** A position in the sequence for sequential reads, such as one pool
    chunk's consecutive dies. *)

val cursor : t -> int -> cursor
(** [cursor t n] computes point [n] by random access, as {!point_into}
    does; the first {!next_into} writes it.
    @raise Invalid_argument if [n < 0]. *)

val next_into : cursor -> float array -> unit
(** Writes the cursor's next point and advances: points [n], [n + 1], …
    for a cursor started at [n]. Each step after the first is the
    Gray-code update [x(k) = x(k − 1) xor v(ctz k)], one XOR per
    dimension, and writes bit for bit what {!point_into} writes for the
    same index. Allocation-free.
    @raise Invalid_argument if [out] is too short. *)
