(* yield-sobol: each op is one scrambled-Sobol Variation.yield_mc call
   over 65,536 dies of a (Table 1 row x flavor) problem, with a fresh
   generator per op. Every run plays each of the 39 problems equally
   often, in a seed-shuffled order. *)

open Perfbench
open Common
module S = Script
module V = Power_core.Variation
module N = Power_core.Numerical_opt

let problem (o : S.yield_op) =
  Serve.Engine.problem_of_label (tech_of_name o.y_tech) o.y_label

let all_problems () =
  List.concat_map
    (fun t -> List.map (Serve.Engine.problem_of_label t) S.labels)
    S.flavors

(* The cold work a user pays once: pool start, calibration of every
   problem, and its nominal optimum (which fits the linearisations). *)
let setup () =
  snd
    (timed (fun () ->
         ignore (Parallel.Pool.get_default ());
         List.iter (fun p -> ignore (N.optimum p)) (all_problems ())))

let run_op (o : S.yield_op) =
  V.yield_mc ~sampler:`Sobol ~dies:S.yield_dies
    ~rng:(Numerics.Rng.create o.y_seed) (problem o)

let stats_ok (s : V.yield_stats) =
  List.for_all Float.is_finite [ s.q01; s.q05; s.q50; s.q95; s.q99 ]
  && s.q01 <= s.q05 && s.q05 <= s.q50 && s.q50 <= s.q95 && s.q95 <= s.q99

let curve_ok c =
  let ok = ref (Array.length c > 0) in
  Array.iteri
    (fun i (spec, frac) ->
      if not (frac >= 0.0 && frac <= 1.0) then ok := false;
      if i > 0 then begin
        let spec0, frac0 = c.(i - 1) in
        if not (spec > spec0 && frac >= frac0) then ok := false
      end)
    c;
  !ok

let result_ok (r : V.yield_result) =
  r.dies = S.yield_dies && stats_ok r.ptot && stats_ok r.vdd
  && curve_ok r.yield_curve

(* Ops recomputed at pool size 1 must be bitwise equal to the run's. *)
let sampled ~seed n =
  let st = Random.State.make [| seed; 0x5eed |] in
  List.sort_uniq compare (List.init 3 (fun _ -> Random.State.int st n))

let play ~seed ~traced ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let results = Array.make n None and lat = Array.make n 0.0 in
  let t0 = now () in
  Array.iteri
    (fun i o ->
      let r, dt = timed (fun () -> span "yield_mc" (fun () -> run_op o)) in
      if traced then harvest ();
      results.(i) <- Some r;
      lat.(i) <- dt *. 1000.0)
    ops;
  let window_s = now () -. t0 in
  let results = Array.map Option.get results in
  let ok = Array.map result_ok results in
  let jobs = Parallel.Pool.default_jobs () in
  Parallel.Pool.set_default_jobs 1;
  List.iter
    (fun i ->
      let again = run_op ops.(i) in
      if Marshal.to_string again [] <> Marshal.to_string results.(i) [] then
        ok.(i) <- false)
    (sampled ~seed n);
  Parallel.Pool.set_default_jobs jobs;
  {
    work = float_of_int (n * S.yield_dies);
    window_s;
    lat_ms = lat;
    ok = count_true ok;
    attempted = n;
  }

(* Per-die costs of the layers under yield_mc, timed by the bench around
   their public entry points on the run's own problems. *)
let layer_micro () =
  let probs = all_problems () in
  let spread = V.default_spread in
  let chain = 64 in
  let dies = ref 0 in
  List.iteri
    (fun i p ->
      let rng = Numerics.Rng.create (1000 + i) in
      let varied =
        Array.init chain (fun _ ->
            let _, _, _, _, q = V.draw_factors spread rng p in
            q)
      in
      let head = N.optimum p in
      for _ = 1 to 4 do
        span "solve_chain_into" (fun () ->
            N.solve_chain_into ~head ~problem_of:(Array.get varied) ~n:chain
              ~write:(fun _ _ -> ())
              ());
        dies := !dies + chain
      done;
      for _ = 1 to 8 do
        ignore (span "optimum" (fun () -> N.optimum p))
      done)
    probs;
  let total name = Array.fold_left ( +. ) 0.0 (span_samples name) in
  let chain_us = total "solve_chain_into" *. 1e6 /. float_of_int !dies in
  let n = 65_536 in
  let sobol =
    Numerics.Sobol.create ~scramble:(Numerics.Rng.create 3) ~dims:4 ()
  in
  let pt = Array.make 4 0.0 in
  let sink = ref 0.0 in
  span "sobol" (fun () ->
      for k = 0 to n - 1 do
        Numerics.Sobol.point_into sobol k pt;
        sink := !sink +. Numerics.Stats.normal_quantile pt.(0)
      done);
  let q = Numerics.Sketch.Quantile.create () in
  let mo = Numerics.Sketch.Moments.create () in
  let y = Numerics.Sketch.Yield.create ~specs:(Array.init 17 (fun i -> 1.0 +. float_of_int i)) in
  span "sketch" (fun () ->
      for k = 0 to n - 1 do
        let v = 1.0 +. (float_of_int (k land 1023) /. 64.0) in
        Numerics.Sketch.Quantile.add q v;
        Numerics.Sketch.Moments.add mo v;
        Numerics.Sketch.Yield.add y v
      done);
  if Float.is_nan !sink then assert false;
  ( chain_us,
    span_median_us "optimum",
    total "sobol" *. 1e6 /. float_of_int n,
    total "sketch" *. 1e6 /. float_of_int n )

let run (c : ctx) =
  ignore (setup ());
  let ops = S.yield_script ~seed:c.seed ~seconds:c.seconds in
  let pass = play ~seed:c.seed ~traced:false ops in
  let rss_mb = peak_rss_mb () in
  let layers =
    if not c.trace then []
    else begin
      Obs.reset ();
      Obs.set_enabled true;
      let g0 = gc_snapshot () in
      let traced = play ~seed:c.seed ~traced:true ops in
      let g1 = gc_snapshot () in
      Obs.set_enabled false;
      let chain_us, cold_us, sampler_us, sketch_us = layer_micro () in
      let dies = tc "mc.samples" in
      let wall_us_per_die = traced.window_s *. 1e6 /. traced.work in
      let jobs = float_of_int (Parallel.Pool.default_jobs ()) in
      pool_solver_layers tc
      @ [
        m "pool.join_wait_ms" "ms" !join_wait_ms;
        m "solver.chain_us_per_die" "us" chain_us;
        m "solver.cold_us" "us" cold_us;
        m "yield.dies" "count" dies;
        m "yield.chunks" "count" (tc "mc.chunks");
        m "yield.sobol_draws" "count" (tc "mc.sobol_draws");
        m "yield.sketch_merges" "count" (tc "sketch.merges");
        m "yield.sampler_us_per_die" "us" sampler_us;
        m "yield.sketch_us_per_die" "us" sketch_us;
        m "yield.solver_share" "fraction" (chain_us /. (wall_us_per_die *. jobs));
        m "trace.overhead_pct" "%" (overhead_pct ~untraced:pass ~traced);
      ]
      @ gc_layers ~work:traced.work g0 g1
    end
  in
  { pass; rss_mb; tail_pct = S.yield_tail_pct; layers }
