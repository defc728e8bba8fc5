(** Abstract interpretation of the power model: certified enclosures.

    The concrete semantics is {!Power_law.objective}; the
    abstract domain is outward-rounded intervals
    ({!Numerics.Interval}) tightened with affine mean-value forms and
    derivative-sign (monotonicity) arguments. {!certify} runs an interval
    branch-and-bound over the supply axis and returns a {e proof}: a
    guaranteed enclosure of the minimum total power and a bracket
    guaranteed to contain every minimiser — without executing the solver
    it cross-checks. *)

type box = {
  problem : Power_law.problem;
  f : Numerics.Interval.t;  (** Frequency range, must be > 0. *)
  vdd : Numerics.Interval.t;  (** Supply range, must be > 0. *)
}

val box :
  ?f:Numerics.Interval.t ->
  ?vdd:Numerics.Interval.t ->
  Power_law.problem ->
  box
(** [f] defaults to the problem's (degenerate) frequency, [vdd] to
    {!Power_law.vdd_search_range}.
    @raise Invalid_argument on non-positive boxes. *)

val ptot_over : box -> Numerics.Interval.t
(** Certified enclosure of the {e range} of Ptot over the whole box:
    naive interval evaluation, intersected with an affine mean-value
    evaluation (which keeps the vdd correlation through the
    [vdd − (χ′·vdd)^(1/α)] cancellation) and, when the derivative is
    certified sign-definite, with the exact endpoint-spanned range. *)

val dptot_over : box -> Numerics.Interval.t
(** Certified enclosure of d(Ptot)/dVdd over the box. *)

val affine_over : box -> Numerics.Interval.t option
(** The affine mean-value enclosure of Ptot over the box alone, the one
    {!ptot_over} intersects with the naive one; [None] where an
    intermediate leaves the regime the tightening is valid in. *)

type certificate = {
  ptot : Numerics.Interval.t;
      (** Enclosure of [min Ptot] over the box. The upper end is an
          {e achieved} point evaluation, so it is attainable. *)
  vdd_bracket : Numerics.Interval.t;
      (** Certified bracket: every minimiser of Ptot over the box lies
          inside it. *)
  vdd_best : float;
      (** The incumbent: the supply (a sub-box midpoint) whose point
          evaluation set [ptot.hi]. Edge leaves never update it. *)
  boxes : int;  (** Sub-boxes examined. *)
  splits : int;  (** Bisections performed. *)
  prunes : int;  (** Sub-boxes discarded (bound or monotonicity). *)
}

val certify : ?tol:float -> ?max_splits:int -> box -> certificate
(** Interval branch-and-bound over the supply axis. Boxes are discarded
    when their certified lower bound exceeds the incumbent (an achieved
    point value) or when their derivative enclosure is sign-definite and
    they are interior (domain-edge monotone boxes collapse to the edge
    point); the bound test runs on the naive enclosure before the affine
    one is built. Surviving boxes are bisected down to width [tol] (default
    2e-3 V); [max_splits] (default 20000) bounds the work, trading
    tightness — never soundness — when exhausted. Counters [cert.boxes],
    [cert.splits], [cert.prunes]. *)

val excludes :
  ?tol:float -> ?max_splits:int -> box -> threshold:float -> bool
(** [excludes b ~threshold] — is [min Ptot] over [b] certifiably {e strictly
    above} [threshold]? [true] is the proof; [false] is conservative (an
    inconclusive leaf at the [tol]/[max_splits] floor). The explorer's
    certified incumbent pruner: a one-shot pdyn-based clip discards the high-supply tail (Pdyn =
    K·vdd² already exceeds the threshold there) before a lower-bound-only
    branch-and-bound works the remaining prefix, skipping the achieved
    upper values, derivative enclosures and endpoint refinements that
    two-sided certification pays for, and the affine form of any box its
    naive bound already excludes. Defaults: [tol] 2e-3, [max_splits]
    32. Counters [cert.boxes]/[cert.splits]/[cert.prunes]. *)
