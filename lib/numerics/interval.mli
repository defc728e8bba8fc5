(** Outward-rounded interval arithmetic.

    Every operation returns an interval guaranteed to contain the exact
    real-number result for all points of its operands: round-to-nearest
    results are widened by one ulp per side (two for the libm
    transcendentals, which are not correctly rounded on every platform).
    This is the substrate of {!Absint.certify} — the certified Ptot
    enclosures are sound exactly because these primitives are.

    Endpoints are kept canonical: [-0.0] is rewritten to [+0.0] at
    construction (see {!Finite.canonical_zero}) so extended division by a
    zero-touching box keeps the right infinite end. Infinite endpoints are
    allowed (unbounded but sound); NaN endpoints are rejected. *)

type t = private { lo : float; hi : float }

val up : float -> float
(** The next double towards [+inf]: [Float.succ] bit for bit, NaN payloads
    included, without its libm [nextafter] call (a multiply and an add when
    [2^-969 <= |x| <= max_float], an integer step on the bit pattern
    otherwise). *)

val down : float -> float
(** The next double towards [-inf]: [Float.pred] bit for bit, as
    [-. up (-. x)]. *)

exception Empty
(** Raised by {!meet_exn} on disjoint intervals. *)

val make : float -> float -> t
(** [make lo hi]. @raise Invalid_argument on NaN endpoints or [lo > hi]. *)

val of_float : float -> t
(** Degenerate (zero-width) interval. *)

val entire : t
(** [(-inf, +inf)] — the no-information enclosure. *)

val zero : t
val one : t

val width : t -> float
val mid : t -> float
val rad : t -> float
(** Outward-rounded half-width about {!mid}. *)

val mag : t -> float
(** [max |lo| |hi|]. *)

val contains : t -> float -> bool
val subset : t -> t -> bool
(** [subset a b] — is [a] contained in [b]? *)

val is_finite : t -> bool

val finite_violation : t -> (string * Finite.violation) option
(** First non-finite endpoint as [("lo"|"hi", violation)], for the
    NaN/Inf-free cert rule. *)

val hull : t -> t -> t
val intersect : t -> t -> t option
val meet_exn : t -> t -> t

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val add_scalar : t -> float -> t
val mul : t -> t -> t
val scale : float -> t -> t
val sqr : t -> t
(** Tighter than [mul t t]: knows both factors are the same variable. *)

val div : t -> t -> t
(** Extended interval division: a denominator box touching or containing
    zero yields half-lines or {!entire} rather than raising, except for
    the exact zero-width box [\[0, 0\]].
    @raise Invalid_argument on division by [\[0, 0\]]. *)

val inv : t -> t

val exp : t -> t
(** Lower endpoint clamped to [>= 0]: the outward step below a tiny
    positive result must not cross zero. *)

val log : t -> t
(** Intervals with [lo <= 0 < hi] get a [-inf] lower endpoint.
    @raise Invalid_argument when [hi <= 0]. *)

val pow_scalar : t -> float -> t
(** [pow_scalar x y] encloses [x ** y] for a non-negative base interval
    and scalar exponent (monotone in the base for either sign of [y]).
    @raise Invalid_argument on a negative base interval or NaN exponent. *)

val split : t -> (t * t) option
(** Bisect at {!mid}; [None] when the box is too thin to split (the
    midpoint is not strictly interior in floating point). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Affine forms in one noise symbol: [mid + c·eps + err], [eps] in
    [[-1, 1]].

    The symbol stands for one variable (the certifier's supply voltage),
    so every form built from {!Affine.of_interval} of that variable shares
    it. This preserves linear correlation between quantities derived from
    it, which defeats the dependency problem of plain intervals on
    expressions like [v - (chi' v)^(1/alpha)] where [v] occurs several
    times. [c = 0.0] means the form does not depend on the symbol. All
    operations inflate [err] by an outward bound on their own rounding
    error, so {!Affine.to_interval} is always a sound enclosure. *)
module Affine : sig
  type interval := t

  type form = private {
    mid : float;
    c : float;  (** Coefficient of the noise symbol; [0.0] when absent. *)
    err : float;
  }

  val const : float -> form
  val of_interval : interval -> form
  (** The variable spanning the interval, as the noise symbol. Forms
      from two calls are treated as the same variable — use it for one
      quantity only. *)

  val to_interval : form -> interval
  val radius : form -> float

  val neg : form -> form
  val add : form -> form -> form
  val sub : form -> form -> form
  val add_const : float -> form -> form
  val scale : float -> form -> form
  val mul : form -> form -> form
  val sqr : form -> form

  val mul_interval : interval -> form -> form
  (** Product with an interval-valued coefficient: centred on the
      coefficient's midpoint, the half-width feeds the error term. *)

  val mean_value : x0:float -> fmid:interval -> slope:interval ->
    form -> form
  (** [mean_value ~x0 ~fmid ~slope x] encloses [g(x)] via the mean-value
      form [g(x0) + g'(xi)(x - x0)], given [fmid ⊇ g(x0)] and [slope ⊇
      g'] over the whole range of [x]. Keeps the linear correlation with
      [x] — the tool of choice for the monotone device-model curves. *)
end
