(** Full numerical optimisation of the working point — the reference against
    which the closed form's < 3 % error claim is checked (Section 3), and
    the machinery behind Figure 1.

    Since the Eq. 13 rework the production entry point {!optimum} is
    {e analytically seeded}: the closed form's [vdd_opt] (within 3 % of the
    numerical optimum inside its validity domain — the paper's headline
    result) starts a bracket expansion + Brent refinement instead of a
    blind 256-point grid scan. {!optimum_grid} keeps the pre-seeding
    scan-then-golden solver as the differential oracle; the two agree to
    better than 1e-6 relative in both the optimal supply and the optimal
    power (property-tested, [@solver-equiv]). Families of related problems
    (sweeps, ladders, Monte-Carlo dies) should go through
    {!optima_continued}, which warm-starts each solve from its
    neighbour's optimum. *)

type point = Power_law.breakdown

val ptot_on_constraint : Power_law.problem -> float -> float
(** Total power at a supply, threshold set by the timing constraint:
    {!Power_law.objective} of the problem's {!Power_law.coeffs}, which
    [ptot_on_constraint problem] computes once. Returns [infinity] for
    supplies whose implied threshold is absurd (vdd ≤ 0) and wherever the
    total is not finite. *)

val optimum :
  ?vdd_lo:float -> ?vdd_hi:float -> ?samples:int ->
  Power_law.problem -> point
(** One-dimensional search over Vdd on the constraint locus. Seeds from
    {!Closed_form}'s Eq. 10 [vdd_opt] when the problem is inside the
    linearization's validity domain (the closed form is feasible and its
    predicted optimum falls inside both the Eq. 7 fit range and the search
    bracket), then refines with {!Numerics.Minimize.seeded_bracket}. Falls
    back to the {!optimum_grid} scan otherwise, counted by the
    [opt.seed_fallbacks] counter. [samples] only affects the fallback
    path. Default search range {!Power_law.vdd_search_range}
    (0.05–3.0 V). *)

val optimum_grid :
  ?vdd_lo:float -> ?vdd_hi:float -> ?samples:int ->
  Power_law.problem -> point
(** The blind solver: [samples]-point grid scan (default 256) to localise
    the global-minimum basin, golden section to refine. Robust to mild
    non-unimodality and independent of the closed form — the differential
    oracle the seeded {!optimum} is property-tested against, and its
    fallback. Default search range {!Power_law.vdd_search_range}. *)

val optimum_warm :
  ?vdd_lo:float -> ?vdd_hi:float -> from:point -> Power_law.problem -> point
(** [optimum_warm ~from problem] re-optimises a problem known to be close
    to an already solved one, seeding from [from]'s optimal supply with a
    tight (2 %) trust radius. The bracket expansion makes the result exact
    even when the neighbour is further away than that — only the iteration
    count grows. *)

val warm_solve :
  ?vdd_lo:float -> ?vdd_hi:float -> from:float -> (float -> float) ->
  Numerics.Minimize.result
(** [warm_solve ~from f] is the solve under {!optimum_warm} on any
    on-constraint objective [f] (such as {!Power_law.objective}): seeded
    at the supply [from] with the same 2 % trust radius, under the same
    [opt.solve] span and [opt.solves] / [opt.seeded_solves] /
    [opt.brent_iters] counters. The result's [fx] is [f x], so a caller
    that needs only the optimal total reads it there: {!optimum_warm} is
    [warm_solve ~from:from.vdd (ptot_on_constraint problem)] followed by
    {!Power_law.at} at the minimiser. *)

val optimum_stored :
  ?vdd_lo:float -> ?vdd_hi:float -> store:Store.t ->
  Power_law.problem -> point
(** Bitwise-safe store path: an exact-key hit replays the stored bits
    (the solver is deterministic, so they equal what a cold solve would
    produce); a miss solves via {!optimum} and persists the result.
    Counted by [opt.store_hits] / [opt.store_misses]. *)

val solve_chain_into :
  ?vdd_lo:float ->
  ?vdd_hi:float ->
  ?head:point ->
  problem_of:(int -> Power_law.problem) ->
  n:int ->
  write:(int -> point -> unit) ->
  unit ->
  unit
(** [solve_chain_into ~problem_of ~n ~write ()] solves the [n] problems
    [problem_of 0 .. problem_of (n-1)] as one warm-started continuation
    chain on the calling domain: solve [i+1] seeds from solve [i]'s
    optimum ({!optimum_warm}), and solve 0 seeds from [head] when given
    (else it solves cold via {!optimum}). Each result is passed to
    [write i point] as soon as it is available — nothing is retained, so
    the caller can stream into flat arrays or sketches. It does not touch
    the pool, letting the caller own the parallel decomposition.
    {!Variation.yield_mc} solves its dies through {!warm_solve} instead,
    needing no problem record per die. *)

val continuation_chains :
  ?vdd_lo:float ->
  ?vdd_hi:float ->
  problem_of:('a -> Power_law.problem) ->
  'a list ->
  (unit -> point list) list
(** The chunk layout of a continuation family, as thunks: the items are
    cut into contiguous chunks of a fixed length (16, independent of any
    pool size), and each thunk solves its chunk as one
    {!solve_chain_into} chain without [head] — a cold head, every
    successor warm-started from its predecessor — returning the points in
    item order. The thunks are independent of each other and may run on
    any domain, in any order: concatenating their results in list order
    is bitwise {!optima_continued}. The serve batcher runs them as work
    units of its own pool dispatch. [problem_of] must be pure. *)

val optima_continued :
  ?pool:Parallel.Pool.t ->
  ?vdd_lo:float ->
  ?vdd_hi:float ->
  problem_of:('a -> Power_law.problem) ->
  'a list ->
  point list
(** Continuation solve of a family of related problems (a Vdd or frequency
    sweep, a technology ladder, Monte-Carlo dies): {!Parallel.Pool.map}
    over the {!continuation_chains} thunks ([pool] defaults to the shared
    process-wide pool), results concatenated in item order. Inside each
    chunk every solve is warm-started from its predecessor's optimum
    ({!optimum_warm}); chunk heads solve cold via {!optimum}. The chunk
    size is a constant independent of the pool size, so the warm chains —
    and every floating-point bit of the result — are identical at any
    [-j]. [problem_of] must be pure (it may run on any pool domain). *)

val optimum_grid2 :
  ?vdd_range:float * float ->
  ?vth_range:float * float ->
  ?samples:int ->
  Power_law.problem -> point
(** Brute-force reference: minimise over all feasible (Vdd, Vth) couples on
    a dense grid (Vth free, feasibility = meets timing). Validates that the
    constrained 1-D search loses nothing — a positive slack never helps
    (the argument below Eq. 5). [vdd_range] defaults to
    {!Power_law.vdd_search_range}, the same bracket as {!optimum}. *)

val sweep_vdd :
  ?pool:Parallel.Pool.t -> ?samples:int -> vdd_lo:float -> vdd_hi:float ->
  Power_law.problem -> point list
(** Ptot(Vdd) along the constraint locus — one Figure 1 curve. Points whose
    implied threshold is negative are included (the paper's curves extend
    there); callers may filter. Evaluated through the domain pool in
    fixed-size contiguous chunks ([pool] defaults to the shared pool);
    bitwise-identical at any pool size. *)

val dyn_static_ratio : point -> float
(** Pdyn/Pstat — the ratio annotated at each optimum in Figure 1. *)
