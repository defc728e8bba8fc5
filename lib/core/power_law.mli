(** The fundamental power and timing equations — Eqs. 1–6 of the paper.

    A {!problem} ties an architecture, a technology and a throughput
    frequency together with the timing-constraint coefficient χ′ defined by

      (Vdd − Vth)^α = χ′ · Vdd            (Eq. 5, exact form)

    where χ′ = f · LD · ζ_gate · (e·n·Ut/α)^α / Io  (Eq. 6). Every supply
    voltage then implies the unique threshold that makes the critical path
    exactly meet the clock — the locus on which the optimum lives. *)

type problem = {
  tech : Device.Technology.t;
  params : Arch_params.t;
  f : float;  (** Data (throughput) clock frequency, Hz. *)
  chi_prime : float;  (** Timing coefficient χ′ of Eq. 5/6. *)
}

val chi_prime_of_tech :
  Device.Technology.t -> ld_eff:float -> f:float -> float
(** Eq. 6 from first principles: the technology's per-gate ζ and drive
    current set the gate delay, LDeff gates must fit in 1/f. *)

val chi_prime_of_point :
  Device.Technology.t -> vdd:float -> vth:float -> float
(** χ′ back-solved from a known on-constraint operating point —
    [(vdd − vth)^α / vdd]. Used to calibrate against published optima. *)

val make : Device.Technology.t -> Arch_params.t -> f:float -> problem
(** Problem with χ′ from {!chi_prime_of_tech}. *)

val make_calibrated :
  Device.Technology.t -> Arch_params.t -> f:float ->
  vdd_ref:float -> vth_ref:float -> problem
(** Problem with χ′ from a reference operating point. *)

val at_frequency : problem -> f:float -> problem
(** The same architecture and technology at another throughput: χ′ scales
    proportionally with f (Eq. 6), preserving whichever calibration built
    the problem. *)

val chi_linear : problem -> float
(** χ = χ′^(1/α) — the coefficient multiplying (A·Vdd + B) in Eq. 8. *)

val vth_of_vdd : problem -> float -> float
(** The threshold imposed by the timing constraint at a given supply
    (Eq. 5): [vdd − (χ′·vdd)^(1/α)]. May be negative — such supplies
    cannot meet timing with a physical threshold. *)

val vdd_of_vth : problem -> float -> float
(** Inverse of {!vth_of_vdd} (monotone; solved numerically).
    @raise Numerics.Rootfind.No_bracket if no supply in (vth, 20 V] works. *)

val pdyn : problem -> vdd:float -> float
(** Dynamic power [a·N·C·f·Vdd²] (Eq. 1), W. *)

val pstat : problem -> vdd:float -> vth:float -> float
(** Static power [N·Vdd·Io_cell·exp(−Vth/(n·Ut))] (Eq. 1), W. *)

type breakdown = {
  vdd : float;
  vth : float;
  dynamic : float;
  static : float;
  total : float;
}

val at : problem -> vdd:float -> breakdown
(** Power on the timing-constraint locus at the given supply. *)

(** The on-constraint total power of one problem with its per-problem
    products computed once — what every solver minimises. *)
type coeffs = {
  kdyn : float;  (** [a·N·C·f], multiplied left to right. *)
  n_cells : float;  (** N. *)
  io_cell : float;  (** Io per cell, A. *)
  chi_p : float;  (** χ′. *)
  inv_alpha : float;  (** [1/α]. *)
  n_ut : float;  (** [n·Ut], V. *)
}

val coeffs : problem -> coeffs

val total_on_locus : coeffs -> float -> float
(** [total_on_locus (coeffs t) vdd] is bit for bit
    [(at t ~vdd).total] for any [vdd > 0]: the same float operations in
    the same order. It may be infinite or NaN. *)

val objective : coeffs -> float -> float
(** {!total_on_locus} as a minimisation objective: [infinity] for
    [vdd <= 0] and wherever the total is not finite. *)

(** Total power and its first two supply derivatives along the locus. *)
type jet = { mutable p : float; mutable dp : float; mutable d2p : float }

val jet_into : coeffs -> float -> jet -> unit
(** [jet_into c vdd j] stores in [j] the total at [vdd > 0] ([p], bit for
    bit {!total_on_locus}), dPtot/dVdd ([dp]) and d²Ptot/dVdd² ([d2p]),
    all from one [(χ′·vdd)^(1/α)] and one [exp]. Each may be infinite or
    NaN where the total is. *)

val at_free : problem -> vdd:float -> vth:float -> breakdown
(** Power at an arbitrary (possibly infeasible) couple — used by the
    two-dimensional maps of Figure 1. *)

val meets_timing : problem -> vdd:float -> vth:float -> bool
(** Whether the couple satisfies the speed requirement (delay ≤ 1/f). *)

val vdd_search_range : float * float
(** The default supply bracket [(0.05, 3.0)] V shared by every optimiser —
    {!Numerical_opt.optimum}, {!Numerical_opt.certified_optimum}, the
    certifier and the static-analysis sweep-bracket rule all search this
    range unless told
    otherwise, so a result on its boundary always means "widen the
    bracket", never a range mismatch between layers. *)

(** {2 Interval lifts}

    Sound (naive, syntactic) enclosures of the on-constraint power model
    over boxes of supply voltage and frequency. Each occurrence of [vdd]
    widens independently, so wide boxes over-approximate; {!Absint}
    tightens with affine mean-value forms. Every result is guaranteed to
    contain the exact scalar value for every point of the input boxes. *)

val chi_prime_iv :
  problem -> f:Numerics.Interval.t -> Numerics.Interval.t
(** χ′ over a frequency box — exactly proportional to f (Eq. 6).
    @raise Invalid_argument when the f box is not strictly positive. *)

val pdyn_iv :
  problem ->
  f:Numerics.Interval.t ->
  vdd:Numerics.Interval.t ->
  Numerics.Interval.t

(** The constraint-locus terms over one supply box, shared by the Ptot
    and the dPtot/dVdd enclosures below so a caller wanting both pays the
    transcendentals once. *)
type locus_iv = private {
  supply : Numerics.Interval.t;  (** The vdd box. *)
  g : Numerics.Interval.t;  (** [(χ′·vdd)^(1/α)]. *)
  leak : Numerics.Interval.t;  (** [e^(−vth/nUt)], [vth = vdd − g]. *)
}

val locus_iv :
  problem -> chi_prime:Numerics.Interval.t -> Numerics.Interval.t -> locus_iv
(** [locus_iv t ~chi_prime vdd], with [chi_prime] the {!chi_prime_iv} of
    the f box (passed in so a caller evaluating many supply boxes
    computes it once).
    @raise Invalid_argument when the vdd box is not strictly positive. *)

val ptot_on_constraint_iv :
  problem -> f:Numerics.Interval.t -> locus_iv -> Numerics.Interval.t
(** Enclosure of {!objective} over a (f, vdd) box,
    the locus taken over the same boxes. *)

val dptot_on_constraint_iv :
  problem -> f:Numerics.Interval.t -> locus_iv -> Numerics.Interval.t
(** Enclosure of d(Ptot)/dVdd along the constraint locus over the same
    boxes. A sign-definite result proves Ptot monotone on the box — the
    derivative-sign pruning rule of {!Absint.certify}. *)
