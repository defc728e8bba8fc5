(* Reference yield engine: [Power_core.Variation.yield_mc] as it stood
   before its chunk body became one pass per die. Each chunk draws every
   die into four flat factor arrays, rebuilds each die's problem record
   and solves them as [Numerical_opt.solve_chain_into] warm chains into
   two value arrays, then feeds the sketches. The production engine must
   return the same result, bit for bit; test_yield checks that and the
   bench pair diag:yield-engine-oracle / diag:yield-engine times it. It
   counts the same Obs counters under the same names, so both sides of
   the pair carry the same fingerprint. Built on public APIs only. *)

module Pl = Power_core.Power_law
module No = Power_core.Numerical_opt
module V = Power_core.Variation
module Sk = Numerics.Sketch

let c_samples = Obs.Counter.make "mc.samples"
let c_chunks = Obs.Counter.make "mc.chunks"
let c_sobol_draws = Obs.Counter.make "mc.sobol_draws"
let c_merges = Obs.Counter.make "sketch.merges"

let draw_raw (spread : V.spread) rng ~alpha0 =
  let leak_factor =
    Float.exp (Numerics.Rng.gaussian rng ~mu:0.0 ~sigma:spread.sigma_leak)
  in
  let cap_factor =
    Float.max 0.5
      (1.0 +. Numerics.Rng.gaussian rng ~mu:0.0 ~sigma:spread.sigma_cap)
  in
  let speed_factor =
    Float.exp (Numerics.Rng.gaussian rng ~mu:0.0 ~sigma:spread.sigma_speed)
  in
  let alpha =
    Float.max 1.1
      (alpha0 +. Numerics.Rng.gaussian rng ~mu:0.0 ~sigma:spread.sigma_alpha)
  in
  (leak_factor, cap_factor, speed_factor, alpha)

let apply_factors (problem : Pl.problem) ~leak_factor ~cap_factor
    ~speed_factor ~alpha =
  {
    problem with
    Pl.tech = { problem.tech with alpha };
    params =
      {
        problem.params with
        Power_core.Arch_params.io_cell = problem.params.io_cell *. leak_factor;
        avg_cap = problem.params.avg_cap *. cap_factor;
      };
    chi_prime = problem.chi_prime *. speed_factor;
  }

let default_specs nominal_total =
  Array.init 17 (fun i -> nominal_total *. (0.8 +. (0.05 *. float_of_int i)))

type chunk_acc = {
  ptot_m : Sk.Moments.t;
  ptot_q : Sk.Quantile.t;
  vdd_m : Sk.Moments.t;
  vdd_q : Sk.Quantile.t;
  curve : Sk.Yield.t;
}

let fresh_acc ~specs () =
  {
    ptot_m = Sk.Moments.create ();
    ptot_q = Sk.Quantile.create ();
    vdd_m = Sk.Moments.create ();
    vdd_q = Sk.Quantile.create ();
    curve = Sk.Yield.create ~specs;
  }

let merge_acc into from =
  Sk.Moments.merge_into into.ptot_m from.ptot_m;
  Sk.Quantile.merge_into into.ptot_q from.ptot_q;
  Sk.Moments.merge_into into.vdd_m from.vdd_m;
  Sk.Quantile.merge_into into.vdd_q from.vdd_q;
  Sk.Yield.merge_into into.curve from.curve;
  Obs.Counter.add c_merges 5

let yield_stats_of m q =
  {
    V.summary = Sk.Moments.summary m;
    q01 = Sk.Quantile.quantile q 1.0;
    q05 = Sk.Quantile.quantile q 5.0;
    q50 = Sk.Quantile.quantile q 50.0;
    q95 = Sk.Quantile.quantile q 95.0;
    q99 = Sk.Quantile.quantile q 99.0;
  }

let yield_mc ?(spread = V.default_spread) ?(dies = 10_000) ?(chunk = 4096)
    ?(chain = 64) ?(sampler = `Pseudo) ?specs ~rng (problem : Pl.problem) =
  if dies < 1 then invalid_arg "Variation.yield_mc: dies < 1";
  if chain < 1 then invalid_arg "Variation.yield_mc: chain < 1";
  if chunk < chain || chunk mod chain <> 0 then
    invalid_arg "Variation.yield_mc: chunk must be a positive multiple of chain";
  Obs.Span.with_ ~name:"yield.run" (fun () ->
      let nominal = No.optimum problem in
      let specs =
        match specs with
        | Some s -> Array.copy s
        | None -> default_specs nominal.Pl.total
      in
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
      let nchunks = (dies + chunk - 1) / chunk in
      let process c =
        Obs.Span.with_ ~name:"yield.chunk" (fun () ->
            Obs.Counter.incr c_chunks;
            let start = c * chunk in
            let len = Stdlib.min chunk (dies - start) in
            Obs.Counter.add c_samples len;
            let leak = Array.make len 0.0
            and cap = Array.make len 0.0
            and speed = Array.make len 0.0
            and alpha = Array.make len 0.0 in
            (match sobol with
            | None ->
              for k = 0 to len - 1 do
                let stream = Numerics.Rng.split_nth rng (start + k) in
                let lf, cf, sf, al = draw_raw spread stream ~alpha0 in
                leak.(k) <- lf;
                cap.(k) <- cf;
                speed.(k) <- sf;
                alpha.(k) <- al
              done
            | Some sobol ->
              let pt = Array.make 4 0.0 in
              for k = 0 to len - 1 do
                Numerics.Sobol.point_into sobol (start + k) pt;
                leak.(k) <-
                  Float.exp
                    (spread.sigma_leak *. Numerics.Stats.normal_quantile pt.(0));
                cap.(k) <-
                  Float.max 0.5
                    (1.0
                    +. (spread.sigma_cap *. Numerics.Stats.normal_quantile pt.(1))
                    );
                speed.(k) <-
                  Float.exp
                    (spread.sigma_speed *. Numerics.Stats.normal_quantile pt.(2));
                alpha.(k) <-
                  Float.max 1.1
                    (alpha0
                    +. (spread.sigma_alpha
                       *. Numerics.Stats.normal_quantile pt.(3)))
              done;
              Obs.Counter.add c_sobol_draws len);
            let ptot_a = Array.make len 0.0 and vdd_a = Array.make len 0.0 in
            let pos = ref 0 in
            while !pos < len do
              let base = !pos in
              let cl = Stdlib.min chain (len - base) in
              No.solve_chain_into ~head:nominal
                ~problem_of:(fun k ->
                  let k = base + k in
                  apply_factors problem ~leak_factor:leak.(k)
                    ~cap_factor:cap.(k) ~speed_factor:speed.(k)
                    ~alpha:alpha.(k))
                ~n:cl
                ~write:(fun k (pt : No.point) ->
                  ptot_a.(base + k) <- pt.Pl.total;
                  vdd_a.(base + k) <- pt.Pl.vdd)
                ();
              pos := base + cl
            done;
            let acc = fresh_acc ~specs () in
            for k = 0 to len - 1 do
              Sk.Moments.add acc.ptot_m ptot_a.(k);
              Sk.Quantile.add acc.ptot_q ptot_a.(k);
              Sk.Moments.add acc.vdd_m vdd_a.(k);
              Sk.Quantile.add acc.vdd_q vdd_a.(k);
              Sk.Yield.add acc.curve ptot_a.(k)
            done;
            acc)
      in
      let chunks = Parallel.Pool.map process (List.init nchunks Fun.id) in
      let acc = fresh_acc ~specs () in
      List.iter (merge_acc acc) chunks;
      {
        V.nominal;
        dies;
        sampler;
        ptot = yield_stats_of acc.ptot_m acc.ptot_q;
        vdd = yield_stats_of acc.vdd_m acc.vdd_q;
        yield_curve = Sk.Yield.curve acc.curve;
      })
