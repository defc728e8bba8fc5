type spread = {
  sigma_leak : float;
  sigma_cap : float;
  sigma_speed : float;
  sigma_alpha : float;
}

let default_spread =
  { sigma_leak = 0.30; sigma_cap = 0.05; sigma_speed = 0.10; sigma_alpha = 0.03 }

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
  ptot_p95 : float;
  vdd_stats : Numerics.Stats.summary;
}

let c_samples = Obs.Counter.make "mc.samples"

(* The die's parameter draw, separated from its re-optimisation so the
   solves can run as warm-started continuation chains. [draw_raw] produces
   the four factors only (what the streaming engine builds each die's
   objective from); [apply_factors] turns them into the varied problem.
   The draw order (leak, cap, speed, alpha) is part of the determinism
   contract: the engine's per-die pseudo draws must be bitwise-identical to
   [monte_carlo]'s, which the differential oracle test relies on. *)
let draw_raw spread rng ~alpha0 =
  let leak_factor =
    Float.exp (Numerics.Rng.gaussian rng ~mu:0.0 ~sigma:spread.sigma_leak)
  in
  let cap_factor =
    Float.max 0.5 (1.0 +. Numerics.Rng.gaussian rng ~mu:0.0 ~sigma:spread.sigma_cap)
  in
  let speed_factor =
    Float.exp (Numerics.Rng.gaussian rng ~mu:0.0 ~sigma:spread.sigma_speed)
  in
  let alpha =
    Float.max 1.1
      (alpha0 +. Numerics.Rng.gaussian rng ~mu:0.0 ~sigma:spread.sigma_alpha)
  in
  (leak_factor, cap_factor, speed_factor, alpha)

let apply_factors (problem : Power_law.problem) ~leak_factor ~cap_factor
    ~speed_factor ~alpha =
  {
    problem with
    Power_law.tech = { problem.tech with alpha };
    params =
      {
        problem.params with
        Arch_params.io_cell = problem.params.io_cell *. leak_factor;
        avg_cap = problem.params.avg_cap *. cap_factor;
      };
    chi_prime = problem.chi_prime *. speed_factor;
  }

let draw_factors spread rng (problem : Power_law.problem) =
  let leak_factor, cap_factor, speed_factor, alpha =
    draw_raw spread rng ~alpha0:problem.tech.alpha
  in
  ( leak_factor,
    cap_factor,
    speed_factor,
    alpha,
    apply_factors problem ~leak_factor ~cap_factor ~speed_factor ~alpha )

let monte_carlo ?(spread = default_spread) ?(samples = 200) ~rng problem =
  if samples < 2 then invalid_arg "Variation.monte_carlo: samples < 2";
  Obs.Span.with_ ~name:"mc.run" (fun () ->
  let nominal = Numerical_opt.optimum problem in
  (* Each die draws from its own stream, split sequentially from the
     caller's generator before any parallel work starts. The stream a die
     sees therefore depends only on its index and the caller's seed — never
     on how the pool schedules the re-optimisations — so the result is
     bitwise-identical at any pool size. Tracing never touches the streams:
     spans and counters only observe, so enabling Obs cannot change a
     single drawn bit. The draws themselves are cheap and happen on the
     caller; the expensive re-optimisations run as fixed-chunk continuation
     chains through the pool ([Numerical_opt.optima_continued]), each die
     warm-started from its chunk predecessor — the chunking is pool-size
     independent, so the chains (and every result bit) are too. *)
  let streams = List.init samples (fun _ -> Numerics.Rng.split rng) in
  let draws =
    List.map
      (fun stream ->
        Obs.Span.with_ ~name:"mc.sample" (fun () ->
            Obs.Counter.incr c_samples;
            draw_factors spread stream problem))
      streams
  in
  let optima =
    Numerical_opt.optima_continued
      ~problem_of:(fun (_, _, _, _, varied) -> varied)
      draws
  in
  let samples =
    List.map2
      (fun (leak_factor, cap_factor, speed_factor, alpha, _) optimum ->
        { leak_factor; cap_factor; speed_factor; alpha; optimum })
      draws optima
  in
  let ptots = List.map (fun s -> s.optimum.Power_law.total) samples in
  let vdds = List.map (fun s -> s.optimum.Power_law.vdd) samples in
  {
    nominal;
    samples;
    ptot_stats = Numerics.Stats.summarize ptots;
    ptot_p95 = Numerics.Stats.percentile ptots 95.0;
    vdd_stats = Numerics.Stats.summarize vdds;
  })

(* ------------------------------------------------------------------ *)
(* Streaming million-die yield engine.                                 *)
(* ------------------------------------------------------------------ *)

type sampler = [ `Pseudo | `Sobol ]

type yield_stats = {
  summary : Numerics.Stats.summary;
  q01 : float;
  q05 : float;
  q50 : float;
  q95 : float;
  q99 : float;
}

type yield_result = {
  nominal : Numerical_opt.point;
  dies : int;
  sampler : sampler;
  ptot : yield_stats;
  vdd : yield_stats;
  yield_curve : (float * float) array;
}

let c_chunks = Obs.Counter.make "mc.chunks"
let c_sobol_draws = Obs.Counter.make "mc.sobol_draws"
let c_merges = Obs.Counter.make "sketch.merges"

let default_specs nominal_total =
  Array.init 17 (fun i -> nominal_total *. (0.8 +. (0.05 *. float_of_int i)))

(* One chunk's worth of aggregation state — merged on the caller in chunk
   index order, so the (float) moment merges see a fixed operand order and
   the result stays bitwise-identical at any pool size. *)
type chunk_acc = {
  ptot_m : Numerics.Sketch.Moments.t;
  ptot_q : Numerics.Sketch.Quantile.t;
  vdd_m : Numerics.Sketch.Moments.t;
  vdd_q : Numerics.Sketch.Quantile.t;
  curve : Numerics.Sketch.Yield.t;
}

let fresh_acc ~specs () =
  {
    ptot_m = Numerics.Sketch.Moments.create ();
    ptot_q = Numerics.Sketch.Quantile.create ();
    vdd_m = Numerics.Sketch.Moments.create ();
    vdd_q = Numerics.Sketch.Quantile.create ();
    curve = Numerics.Sketch.Yield.create ~specs;
  }

let merge_acc into from =
  Numerics.Sketch.Moments.merge_into into.ptot_m from.ptot_m;
  Numerics.Sketch.Quantile.merge_into into.ptot_q from.ptot_q;
  Numerics.Sketch.Moments.merge_into into.vdd_m from.vdd_m;
  Numerics.Sketch.Quantile.merge_into into.vdd_q from.vdd_q;
  Numerics.Sketch.Yield.merge_into into.curve from.curve;
  Obs.Counter.add c_merges 5

let yield_stats_of m q =
  {
    summary = Numerics.Sketch.Moments.summary m;
    q01 = Numerics.Sketch.Quantile.quantile q 1.0;
    q05 = Numerics.Sketch.Quantile.quantile q 5.0;
    q50 = Numerics.Sketch.Quantile.quantile q 50.0;
    q95 = Numerics.Sketch.Quantile.quantile q 95.0;
    q99 = Numerics.Sketch.Quantile.quantile q 99.0;
  }

let yield_mc ?(spread = default_spread) ?(dies = 10_000) ?(chunk = 4096)
    ?(chain = 64) ?(sampler = `Pseudo) ?specs ~rng
    (problem : Power_law.problem) =
  if dies < 1 then invalid_arg "Variation.yield_mc: dies < 1";
  if chain < 1 then invalid_arg "Variation.yield_mc: chain < 1";
  if chunk < chain || chunk mod chain <> 0 then
    invalid_arg "Variation.yield_mc: chunk must be a positive multiple of chain";
  Obs.Span.with_ ~name:"yield.run" (fun () ->
      let nominal = Numerical_opt.optimum problem in
      let specs =
        match specs with
        | Some s -> Array.copy s
        | None -> default_specs nominal.Power_law.total
      in
      (* Both samplers index their randomness by absolute die number, never
         by generator history: die [i] reads pseudo stream [split_nth rng i]
         or Sobol point [i]. The caller's generator is NOT advanced — the
         whole run is a pure function of its state — and which pool chunk
         computes a die cannot change a single drawn bit. *)
      let sobol =
        match sampler with
        | `Pseudo -> None
        | `Sobol ->
          Some
            (Numerics.Sobol.create
               ~scramble:(Numerics.Rng.split_nth rng 0)
               ~dims:4 ())
      in
      let alpha0 = problem.tech.alpha in
      (* Per-problem factors of each die's objective coefficients: the
         die varies C, Io, chi' and alpha, so [kdyn = ((a N) (C cap)) f]
         multiplies in [Power_law.pdyn]'s order. *)
      let p = problem.params in
      let a_n = p.Arch_params.activity *. p.n_cells
      and n_ut = Device.Technology.n_ut problem.tech in
      let nchunks = (dies + chunk - 1) / chunk in
      let process c =
        Obs.Span.with_ ~name:"yield.chunk" (fun () ->
            Obs.Counter.incr c_chunks;
            let start = c * chunk in
            let len = Stdlib.min chunk (dies - start) in
            Obs.Counter.add c_samples len;
            let acc = fresh_acc ~specs () in
            (* One pass per die: draw its four factors, solve its
               objective warm from its chain predecessor's optimum (the
               nominal one at each chain head), feed the sketches. Chain
               heads start warm rather than from the Eq. 13 closed form
               because per-die alpha draws would miss (and grow) the
               linearization memo on every cold solve; [chunk mod chain
               = 0] aligns chain boundaries to chunk starts, so the
               chains are the same whatever the pool size. *)
            let solve ~leak_factor ~cap_factor ~speed_factor ~alpha ~from =
              let c =
                {
                  Power_law.kdyn = a_n *. (p.avg_cap *. cap_factor) *. problem.f;
                  n_cells = p.n_cells;
                  io_cell = p.io_cell *. leak_factor;
                  chi_p = problem.chi_prime *. speed_factor;
                  inv_alpha = 1.0 /. alpha;
                  n_ut;
                }
              in
              let r = Numerical_opt.warm_solve ~from c in
              (* The solve's [fx] is [f x]: a finite one is the die's total,
                 a non-finite total is recomputed as [Power_law.at] would
                 give it. *)
              let ptot =
                if Float.is_finite r.fx then r.fx
                else Power_law.total_on_locus c r.x
              in
              Numerics.Sketch.Moments.add acc.ptot_m ptot;
              Numerics.Sketch.Quantile.add acc.ptot_q ptot;
              Numerics.Sketch.Moments.add acc.vdd_m r.x;
              Numerics.Sketch.Quantile.add acc.vdd_q r.x;
              Numerics.Sketch.Yield.add acc.curve ptot;
              r.x
            in
            let prev = ref nominal.Power_law.vdd in
            (match sobol with
            | None ->
              for k = 0 to len - 1 do
                if k mod chain = 0 then prev := nominal.vdd;
                let stream = Numerics.Rng.split_nth rng (start + k) in
                let leak_factor, cap_factor, speed_factor, alpha =
                  draw_raw spread stream ~alpha0
                in
                prev :=
                  solve ~leak_factor ~cap_factor ~speed_factor ~alpha
                    ~from:!prev
              done
            | Some sobol ->
              (* Inverse-CDF transform: Box-Muller on a low-discrepancy
                 sequence would destroy its equidistribution. *)
              let cursor = Numerics.Sobol.cursor sobol start in
              let pt = Array.make 4 0.0 in
              for k = 0 to len - 1 do
                if k mod chain = 0 then prev := nominal.vdd;
                Numerics.Sobol.next_into cursor pt;
                prev :=
                  solve
                    ~leak_factor:
                      (Float.exp
                         (spread.sigma_leak
                         *. Numerics.Stats.normal_quantile pt.(0)))
                    ~cap_factor:
                      (Float.max 0.5
                         (1.0
                         +. spread.sigma_cap
                            *. Numerics.Stats.normal_quantile pt.(1)))
                    ~speed_factor:
                      (Float.exp
                         (spread.sigma_speed
                         *. Numerics.Stats.normal_quantile pt.(2)))
                    ~alpha:
                      (Float.max 1.1
                         (alpha0
                         +. spread.sigma_alpha
                            *. Numerics.Stats.normal_quantile pt.(3)))
                    ~from:!prev
              done;
              Obs.Counter.add c_sobol_draws len);
            acc)
      in
      let chunks = Parallel.Pool.map process (List.init nchunks Fun.id) in
      let acc = fresh_acc ~specs () in
      List.iter (merge_acc acc) chunks;
      {
        nominal;
        dies;
        sampler;
        ptot = yield_stats_of acc.ptot_m acc.ptot_q;
        vdd = yield_stats_of acc.vdd_m acc.vdd_q;
        yield_curve = Numerics.Sketch.Yield.curve acc.curve;
      })

let vth_absorption problem ~dvth0 =
  (* A rigid Vth0 shift moves every feasible couple by the same amount in
     effective-threshold space while chi-prime (defined on the effective
     threshold) is unchanged: the optimisation problem is literally the
     same, so the optimal power is too. The working point absorbs the shift
     through body bias / supply choice. *)
  ignore dvth0;
  (Numerical_opt.optimum problem).Power_law.total
