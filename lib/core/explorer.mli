(** Pruned Pareto design-space exploration — ROADMAP item 1.

    Enumerates a (generator family × analytic parallelisation × technology
    flavor × throughput) candidate space — thousands of points per run —
    and emits one power/latency/area Pareto front per frequency slice.
    The pruned path ranks candidates with the Eq. 13 closed form (a cheap
    admissible pre-ordering), discards candidates whose {e certified}
    lower bound on min Ptot strictly exceeds an achieved front value (an
    O(1) per-design ledger lookup, then an {!Absint.excludes} interval
    proof), and runs the exact seeded solves only for the survivors, in
    incumbent-first order through {!Parallel.Pool.map_rounds}.

    {b Invariants.} The pruned and exhaustive paths produce bitwise
    identical fronts at any pool size: pruning discards only candidates
    strictly dominated by a surviving front member (dominance is
    transitive through later culling), both arms run the identical exact
    task, and all front/ledger state advances sequentially on the caller.
    The ledger carries certified bounds across slices in ascending
    frequency, sound because min-over-vdd Ptot on the constraint locus is
    nondecreasing in f. A feasible candidate set always yields a
    non-empty front — the empty-threshold case prunes nothing (the
    [dse.front-nonempty] lint rule).

    {b Warm store.} With [?store], substrate characterizations, exact
    solve outcomes and the certified ledger persist across runs. Replay is
    exact-key only (full hex-float problem serializations), and the solver
    is deterministic, so a warm run's fronts are byte-identical to a cold
    run's at any pool size — only [store_hits]/prune counters move.

    Counters: [dse.enumerated], [dse.constraint_filtered],
    [dse.bound_pruned], [dse.cert_pruned], [dse.store_hits],
    [dse.exact_solves], [pareto.front_size]; caches [memo.dse.build.*],
    [memo.dse.chars.*]; store traffic under [store.*]. *)

type family = Booth | Dadda | Wallace

val family_name : family -> string
val family_of_string : string -> family option

type axes = {
  bits : int;
  families : family list;  (** Generator families to enumerate. *)
  radices : int list;  (** Booth recoding radices (Booth only). *)
  signednesses : Multipliers.Booth.signedness list;  (** Booth only. *)
  stages : int list;  (** Pipeline depths; combos beyond
      {!Multipliers.Booth.max_stages} for a radix are skipped, Dadda is
      combinational-only (kept iff 1 is listed). *)
  copies : int list;  (** Analytic {!Transform.parallelize} axis. *)
  fmults : float list;  (** Multiples of {!Paper_data.frequency};
      deduplicated and processed in ascending order. *)
  techs : Device.Technology.t list;
}

val default_axes : axes
(** 8-bit, all three families, radix {2,4,8}, unsigned, 1–3 stages,
    1/2/4 copies, f × {0.5,1,2,4}, all three STM flavors —
    468 candidates. *)

type substrate = {
  family : family;
  radix : int;  (** Booth recoding radix; 0 for Dadda/Wallace. *)
  signedness : Multipliers.Booth.signedness;
  stages : int;
}

val substrate_combos : axes -> substrate list
(** The valid generator builds the axes induce — Booth combos
    {!Multipliers.Booth.validate} rejects are skipped, Dadda appears iff
    stage 1 is listed, Wallace pipelines any listed depth. *)

val space_size : axes -> int
(** Candidates the axes enumerate (invalid combos excluded). *)

type entry = {
  label : string;
  design : string;  (** Tech-qualified design identity — the ledger key. *)
  family : family;
  radix : int;  (** 0 for non-Booth families. *)
  signedness : Multipliers.Booth.signedness;
  stages : int;
  copies : int;
  tech : string;
  f : float;
  power : float;  (** Achieved optimal Ptot, W. *)
  vdd : float;  (** Supply at the optimum, V. *)
  cert_lo : float;  (** Certified lower bound on min Ptot, W. *)
  latency : float;  (** Effective logical depth after transforms. *)
  area : float;  (** Cell count after transforms (area proxy). *)
}

type slice = { f : float; front : entry list }
(** One frequency's Pareto front, sorted by ascending power (ties by
    design label). *)

type totals = {
  enumerated : int;
  filtered : int;  (** Dropped by the latency/area constraint caps. *)
  bound_pruned : int;  (** Discarded by the O(1) ledger lookup. *)
  cert_pruned : int;  (** Discarded by an {!Absint.excludes} proof. *)
  store_hits : int;  (** Exact outcomes replayed from the warm store. *)
  exact_solves : int;
  front_size : int;  (** Summed over slices. *)
}

type result = { pruned : bool; slices : slice list; totals : totals }

val problems :
  ?seed:int ->
  ?cycles:int ->
  ?reference:Device.Technology.t ->
  axes ->
  Power_law.problem list
(** Every candidate problem {!explore} enumerates over the axes (no
    constraint caps), slice by slice in ascending frequency and in
    enumeration order within a slice, with {!explore}'s defaults for
    [seed]/[cycles]/[reference]. Its warm store files the exact outcome of
    each under {!Warm.problem_key}.
    @raise Invalid_argument as {!explore} does. *)

val explore :
  ?pool:Parallel.Pool.t ->
  ?round:int ->
  ?prune:bool ->
  ?seed:int ->
  ?cycles:int ->
  ?reference:Device.Technology.t ->
  ?store:Store.t ->
  ?max_latency:float ->
  ?max_area:float ->
  axes ->
  result
(** Run the exploration. [prune] (default true) selects the pruned path;
    [false] solves every candidate exactly — the differential oracle the
    A/B bench and the [@explore] property test compare against. [round]
    (default 16) is the {!Parallel.Pool.map_rounds} scheduling quantum
    (any value yields the same fronts). [seed]/[cycles] (defaults 7/160)
    parameterize the activity characterization; [reference] (default LL)
    is the flavor substrates are characterised on before
    {!Tech_compare.adapt_params}. [store] makes the run warm (see the
    module header); [max_latency]/[max_area] cap the candidates before
    either arm sees them.
    @raise Invalid_argument on empty axes, non-positive frequencies,
    copies, or constraint caps (NaN included), or when no substrate combo
    validates. *)
