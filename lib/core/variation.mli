(** Process-variation Monte Carlo over the optimal working point.

    A consequence of the paper's premise (freely adjustable Vdd and Vth)
    worth making explicit: die-to-die threshold shifts are {e absorbed} by
    the working-point adjustment — only the required bias moves, not the
    achievable optimum. What does move the optimum is variation in the
    leakage magnitude (Io), the switched capacitance (C), the drive/delay
    (χ′) and the alpha exponent. This module samples those and returns the
    distribution of the re-optimised total power. *)

type spread = {
  sigma_leak : float;
      (** Log-normal sigma of the per-die leakage multiplier (≈ 0.2–0.5 at
          0.13 µm). *)
  sigma_cap : float;  (** Relative normal sigma on C. *)
  sigma_speed : float;  (** Log-normal sigma on the χ′ (delay) factor. *)
  sigma_alpha : float;  (** Absolute normal sigma on α. *)
}

val default_spread : spread
(** 0.30 / 0.05 / 0.10 / 0.03 — representative 0.13 µm die-to-die values. *)

type sample = {
  leak_factor : float;
  cap_factor : float;
  speed_factor : float;
  alpha : float;
  optimum : Numerical_opt.point;
}

type result = {
  nominal : Numerical_opt.point;
  samples : sample list;
  ptot_stats : Numerics.Stats.summary;
  ptot_p95 : float;  (** 95th percentile of the optimal power, W. *)
  vdd_stats : Numerics.Stats.summary;
}

val monte_carlo :
  ?spread:spread -> ?samples:int -> rng:Numerics.Rng.t ->
  Power_law.problem -> result
(** Default 200 samples. Each die draws its parameters from its own
    generator, split deterministically from [rng] before any parallel
    work; the re-optimisations then run as fixed-chunk warm-started
    continuation chains ({!Numerical_opt.optima_continued}) through the
    pool. Both the chunking and the streams are pool-size independent, so
    the result is a pure function of the generator state and bitwise
    independent of {!Parallel.Pool} size. *)

val draw_factors :
  spread ->
  Numerics.Rng.t ->
  Power_law.problem ->
  float * float * float * float * Power_law.problem
(** [draw_factors spread rng problem] draws one die's
    [(leak_factor, cap_factor, speed_factor, alpha, varied_problem)] from
    [rng], advancing it. The gaussian draw order (leak, cap, speed, alpha)
    is part of the determinism contract between {!monte_carlo} and
    {!yield_mc}'s [`Pseudo] sampler. Exposed for differential tests and
    benchmark baselines. *)

(** {1 Streaming parametric yield}

    {!yield_mc} scales the Monte Carlo to millions of dies by never
    materialising per-die results: each die is drawn, re-optimised warm
    from its chain predecessor and absorbed into mergeable O(1)-memory
    sketches ({!Numerics.Sketch}) in one pass, with no per-die record or
    array. *)

type sampler = [ `Pseudo | `Sobol ]
(** [`Pseudo]: one SplitMix64 stream per die ({!Numerics.Rng.split_nth} of
    the caller's generator at the die index — bitwise the same draws as
    {!monte_carlo}). [`Sobol]: scrambled low-discrepancy points mapped
    through {!Numerics.Stats.normal_quantile}, converging on smooth
    statistics with several-fold fewer dies. *)

type yield_stats = {
  summary : Numerics.Stats.summary;
      (** Exact count/mean/min/max; stddev via compensated one-pass
          moments. *)
  q01 : float;
  q05 : float;
  q50 : float;
  q95 : float;
  q99 : float;
      (** Sketch quantiles, each within the sketch's relative-error bound
          (1 %) of the matching exact order statistic. *)
}

type yield_result = {
  nominal : Numerical_opt.point;
  dies : int;
  sampler : sampler;
  ptot : yield_stats;  (** Optimal total power across dies, W. *)
  vdd : yield_stats;  (** Optimal supply across dies, V. *)
  yield_curve : (float * float) array;
      (** [(power spec, fraction of dies with optimal Ptot <= spec)] on a
          fixed grid — parametric yield vs power budget. *)
}

val yield_mc :
  ?spread:spread ->
  ?dies:int ->
  ?chunk:int ->
  ?chain:int ->
  ?sampler:sampler ->
  ?specs:float array ->
  rng:Numerics.Rng.t ->
  Power_law.problem ->
  yield_result
(** [yield_mc ~rng problem] re-optimises [dies] (default 10_000) varied
    dies and streams the optimal-power / optimal-supply distributions into
    sketches. Defaults: [chunk = 4096] dies per pool task, [chain = 64]
    dies per warm-started continuation chain, [sampler = `Pseudo], [specs]
    a 17-point grid spanning 0.8–1.6 × the nominal optimal power.

    Determinism: die [i]'s randomness is indexed by [i] alone — pseudo
    stream [split_nth rng i], Sobol point [i] (scramble drawn from
    [split_nth rng 0]) — the chunking constants are independent of the
    pool, and chunk sketches merge on the caller in chunk order, so the
    result is bitwise-identical at any {!Parallel.Pool} size (including
    the Obs counter fingerprint: [mc.chunks], [mc.sobol_draws],
    [sketch.merges], [mc.samples]). The caller's [rng] is {e not}
    advanced: the run is a pure function of its state.

    Memory: O(1) per in-flight pool task and per statistic —
    independent of [dies] and [chunk].

    @raise Invalid_argument if [dies < 1], [chain < 1], or [chunk] is not
    a positive multiple of [chain]. *)

val vth_absorption :
  Power_law.problem -> dvth0:float -> float
(** The bias shift absorbing a Vth0 excursion of [dvth0]: the optimum's
    power is unchanged (returns the unchanged Ptot, asserted in tests) —
    the "adjustable Vdd/Vth hides threshold variation" observation. *)
