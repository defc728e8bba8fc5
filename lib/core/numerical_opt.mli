(** Full numerical optimisation of the working point — the reference against
    which the closed form's < 3 % error claim is checked (Section 3), and
    the machinery behind Figure 1.

    Every optimum is one 1-D minimisation of Ptot over Vdd on the timing
    constraint locus (Eq. 5, Vth implied), reached through {!optimum}: it
    is {e seeded} from a neighbour's optimum when the caller has one
    ([~from]), else {e analytically} from the closed form's [vdd_opt]
    (within 3 % of the numerical optimum inside its validity domain — the
    paper's headline result); either seed starts a bracket expansion
    refined by a bracketed Newton iteration on dPtot/dVdd = 0 (the
    stationarity condition behind Eq. 13, solved without its
    linearisation) instead of a blind 256-point grid scan.
    {!optimum_grid} keeps the pre-seeding scan-then-golden solver as the
    fallback and the differential oracle; the two agree to better than
    1e-6 relative in both the optimal supply and the optimal power
    (property-tested, [@solver-equiv]). {!warm_solve} is the same warm
    solve on bare objective coefficients, {!solve_chain_into} and
    {!optima_continued} chain it over families of related problems
    (sweeps, ladders, Monte-Carlo dies), and {!sweep_vdd} evaluates the
    locus itself. *)

type point = Power_law.breakdown

val ptot_on_constraint : Power_law.problem -> float -> float
(** Total power at a supply, threshold set by the timing constraint:
    {!Power_law.objective} of the problem's {!Power_law.coeffs}, which
    [ptot_on_constraint problem] computes once. Returns [infinity] for
    supplies whose implied threshold is absurd (vdd ≤ 0) and wherever the
    total is not finite. *)

val optimum :
  ?vdd_lo:float -> ?vdd_hi:float -> ?samples:int -> ?from:point ->
  Power_law.problem -> point
(** One-dimensional search over Vdd on the constraint locus.

    With [~from], the problem is known to be close to an already solved
    one: the search seeds at [from]'s optimal supply with a tight (2 %)
    trust radius — [warm_solve ~from:from.vdd (Power_law.coeffs
    problem)] followed by {!Power_law.at} at the minimiser. The bracket
    expansion makes the result exact even when the neighbour is further
    away than that — only the iteration count grows.

    Without it, the search seeds from {!Closed_form}'s Eq. 10 [vdd_opt]
    when the problem is inside the linearization's validity domain (the
    closed form is feasible and its predicted optimum falls inside both
    the Eq. 7 fit range and the search bracket), and solves the same way
    with a 5 % radius. It falls back to the
    {!optimum_grid} scan otherwise, counted by the [opt.seed_fallbacks]
    counter. [samples] only affects the fallback path. Default search
    range {!Power_law.vdd_search_range} (0.05–3.0 V). *)

val optimum_grid :
  ?vdd_lo:float -> ?vdd_hi:float -> ?samples:int ->
  Power_law.problem -> point
(** The blind solver: [samples]-point grid scan (default 256) to localise
    the global-minimum basin, golden section to refine. Robust to mild
    non-unimodality and independent of the closed form — the differential
    oracle the seeded {!optimum} is property-tested against, and its
    fallback. Default search range {!Power_law.vdd_search_range}. *)

val warm_solve :
  ?vdd_lo:float -> ?vdd_hi:float -> from:float -> Power_law.coeffs ->
  Numerics.Minimize.result
(** [warm_solve ~from c] is the solve under {!optimum}[ ~from] on the
    objective {!Power_law.objective}[ c]. {!Numerics.Minimize.seeded_bracket}
    centres a bracket of 2 % radius on the supply [from] and slides it by
    function values until its middle point is no worse than both ends;
    Newton on P′(Vdd) = 0 ({!Power_law.jet_into}) then refines from that
    point, bisecting on the sign of P′ whenever a step would leave the
    bracket or P″ ≤ 0, until the step is within 1e-9 relative. One
    [opt.solve] span; counters [opt.solves], [opt.seeded_solves] and
    [opt.brent_iters], which counts the refinement evaluations (the name
    predates Newton). The result's [fx] is [Power_law.objective c x], so a
    caller that needs only the optimal total reads it there. *)

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
    chain on the calling domain: solve [i+1] is {!optimum}[ ~from] solve
    [i]'s optimum, and solve 0 seeds from [head] when given (else it
    solves cold). Each result is passed to [write i point] as soon as it
    is available — nothing is retained, so the caller can stream into
    flat arrays or sketches. It does not touch the pool, letting the
    caller own the parallel decomposition. {!Variation.yield_mc} solves
    its dies through {!warm_solve} instead, needing no problem record per
    die. *)

val optima_continued :
  ?pool:Parallel.Pool.t ->
  ?vdd_lo:float ->
  ?vdd_hi:float ->
  problem_of:('a -> Power_law.problem) ->
  'a list ->
  point list
(** Continuation solve of a family of related problems (a Vdd or frequency
    sweep, a technology ladder, an architecture ranking): the items are
    cut into contiguous chunks of a fixed length (16, independent of any
    pool size), each chunk is one {!solve_chain_into} chain without
    [head] — a cold head, every successor warm-started from its
    predecessor — and the chains run through {!Parallel.Pool.map} ([pool]
    defaults to the shared process-wide pool), results concatenated in
    item order. Because the chunking ignores the pool size, the warm
    chains — and every floating-point bit of the result — are identical
    at any [-j]; a family of at most 16 items is one chain, which the
    pool runs on the caller. [problem_of] must be pure (it may run on any
    pool domain). *)

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
