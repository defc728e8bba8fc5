(* The blind 1-D solver the seeded ones replaced: a [samples]-point grid
   scan (default 256) localises the global-minimum basin on the
   constraint locus, golden section refines it. It owns the
   [opt.grid_evals] / [opt.golden_iters] counters and, like every solve,
   one [opt.solve] span and one [opt.solves] count. Robust to mild
   non-unimodality and independent of the closed form and the
   certifier — the differential oracle [Numerical_opt.optimum] and
   [Numerical_opt.certified_optimum] are property-tested against
   (test_solver_equiv), and the naive arm of the bench's variation and
   instrumentation-overhead A/Bs. Default search range
   [Power_law.vdd_search_range]. *)

module Pl = Power_core.Power_law

let c_solves = Obs.Counter.make "opt.solves"
let c_golden_iters = Obs.Counter.make "opt.golden_iters"
let c_grid_evals = Obs.Counter.make "opt.grid_evals"

let optimum ?(vdd_lo = fst Pl.vdd_search_range)
    ?(vdd_hi = snd Pl.vdd_search_range) ?(samples = 256) problem =
  Obs.Span.with_ ~name:"opt.solve" (fun () ->
      let r =
        Numerics.Minimize.grid_then_golden ~samples ~tol:1e-9
          ~f:(Pl.objective (Pl.coeffs problem))
          vdd_lo vdd_hi
      in
      Obs.Counter.incr c_solves;
      Obs.Counter.add c_golden_iters r.iterations;
      Obs.Counter.add c_grid_evals samples;
      Pl.at problem ~vdd:r.x)
