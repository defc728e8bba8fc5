(** Streaming statistics sketches: O(1) memory per statistic, mergeable.

    The aggregation layer of the million-die Monte-Carlo engine: per-chunk
    accumulators absorb one value per die, chunk results merge in fixed
    chunk order, and no per-die value is ever materialised.

    Merge determinism: {!Quantile} and {!Yield} hold integer counts, so
    their merges are {e exactly} associative and commutative
    (property-tested). {!Moments} merges compensated float sums —
    associative to rounding only, which is why the engine fixes the merge
    order (chunk index order) and results stay bitwise identical at any
    pool size. *)

module Moments : sig
  (** Kahan-compensated count / mean / variance / min / max accumulator. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val merge_into : t -> t -> unit
  (** [merge_into t other] folds [other] into [t]; [other] is unchanged. *)

  val count : t -> int
  val mean : t -> float
  (** @raise Invalid_argument when empty. *)

  val stddev : t -> float
  (** Sample standard deviation (n-1), one-pass compensated; 0 below two
      observations. *)

  val summary : t -> Stats.summary
  (** @raise Invalid_argument when empty. *)
end

module Quantile : sig
  (** Mergeable relative-error quantile sketch (logarithmic buckets, the
      DDSketch scheme): any returned quantile is within relative error
      [alpha] of the matching exact order statistic
      [x_(round(p/100 * (n-1)))]. Memory is bounded by the data's dynamic
      range (≈ 290 buckets per decade at the default [alpha = 1%]), never
      by the stream length. Handles negative values and zero. *)

  type t

  val create : ?alpha:float -> unit -> t
  (** Default [alpha = 0.01] (1 % relative error).
      @raise Invalid_argument unless [alpha] is in (0, 1). *)

  val alpha : t -> float

  val add : t -> float -> unit
  (** @raise Invalid_argument on non-finite values. *)

  val merge_into : t -> t -> unit
  (** Exact integer-count merge — associative and commutative.
      @raise Invalid_argument when the two sketches' [alpha] differ. *)

  val count : t -> int

  val quantile : t -> float -> float
  (** [quantile t p] with [p] in [\[0, 100\]] — same convention as
      {!Stats.percentile}, rounded to the nearest order statistic.
      @raise Invalid_argument when empty or [p] out of range. *)
end

module Yield : sig
  (** Parametric-yield curve accumulator: fraction of observations at or
      below each spec of a fixed grid. One integer bin per grid interval,
      so merging is exact. *)

  type t

  val create : specs:float array -> t
  (** @raise Invalid_argument if [specs] is empty or not strictly
      increasing. The grid is copied. *)

  val add : t -> float -> unit
  val merge_into : t -> t -> unit
  (** @raise Invalid_argument when the spec grids differ. *)

  val count : t -> int

  val curve : t -> (float * float) array
  (** [(spec, fraction of observations <= spec)] per grid point.
      @raise Invalid_argument when empty. *)
end
