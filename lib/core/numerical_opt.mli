(** Full numerical optimisation of the working point — the reference against
    which the closed form's < 3 % error claim is checked (Section 3), and
    the machinery behind Figure 1.

    Every optimum is one 1-D minimisation of Ptot over Vdd on the timing
    constraint locus (Eq. 5, Vth implied), reached through {!optimum}. It
    is seeded from a neighbour's optimum ([~from]), else from the closed
    form's [vdd_opt] (within 3 % inside its validity domain — the paper's
    headline result), else from a certificate ({!certified_optimum}); the
    seed starts a bracket expansion refined by Newton on dPtot/dVdd = 0,
    and no solve scans a grid. The blind grid scan lives on in the tests
    as [Oracles.Grid.optimum], the oracle every seeded solve matches to
    1e-6 relative ([@solver-equiv]). {!warm_solve} is the warm solve on
    bare objective coefficients, {!solve_chain_into} and
    {!optima_continued} chain it over families of related problems, and
    {!sweep_vdd} evaluates the locus itself. *)

type point = Power_law.breakdown

val optimum :
  ?vdd_lo:float -> ?vdd_hi:float -> ?from:point -> Power_law.problem -> point
(** One-dimensional search over Vdd on the constraint locus.

    With [~from], the search seeds at [from]'s optimal supply with a
    tight (2 %) trust radius — [warm_solve ~from:from.vdd
    (Power_law.coeffs problem)] then {!Power_law.at} at the minimiser;
    the bracket expansion keeps the result exact when the neighbour is
    further away, only the iteration count grows. Without it, the seed is
    {!Closed_form}'s Eq. 10 [vdd_opt] (5 % radius) when the problem is
    inside the linearization's validity domain (the closed form is
    feasible and its prediction falls inside both the Eq. 7 fit range and
    the search bracket); otherwise the result is {!certified_optimum}'s,
    counted by [opt.seed_fallbacks]. A seeded solve that ends non-finite
    (a seed inside the overflow region) is also solved again by
    {!certified_optimum}. Default search range
    {!Power_law.vdd_search_range} (0.05–3.0 V). *)

val certified_optimum :
  ?vdd_lo:float -> ?vdd_hi:float -> Power_law.problem ->
  point * Absint.certificate
(** One {!Absint.certify} over the search range, then the 2 % seeded core
    inside its [vdd_bracket] from its incumbent [vdd_best], then the
    objective at each search-range wall the bracket reaches; the lowest
    wins. Non-finite coefficients give the non-finite breakdown at
    [vdd_lo] and a certificate that proves nothing (the whole line, the
    search range, no boxes). *)

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
