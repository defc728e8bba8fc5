(* Differential test of the Eq.13-seeded warm-start solver against the
   blind grid-scan oracle it replaced ([Numerical_opt.optimum_grid], the
   pre-seeding solver kept verbatim). Both refine to tol 1e-9, so wherever
   the objective is unimodal they must land on the same minimum to well
   under 1e-6 relative — in the supply AND in the power (the latter is
   flat at the optimum, so it agrees much tighter). Cases cover the
   calibrated Table 1 rows, the three technology flavors and three
   frequency decades from a fixed seed, so a failure reproduces exactly. *)

module P = Power_core.Paper_data
module Pl = Power_core.Power_law
module N = Power_core.Numerical_opt

let min_cases = 200
let max_draws = 20_000

let tech_of_int = function
  | 0 -> Device.Technology.ll
  | 1 -> Device.Technology.ull
  | _ -> Device.Technology.hs

let log_uniform rng lo hi =
  lo *. Float.exp (Numerics.Rng.float rng (Float.log (hi /. lo)))

let rel a b = Float.abs (a -. b) /. Float.max 1e-30 (Float.abs b)

(* A calibrated row under a random flavor and throughput: the production
   population the seeded solver actually faces. *)
let random_problem rng =
  let rows = Array.of_list P.table1 in
  let tech = tech_of_int (Numerics.Rng.int rng 3) in
  let row = rows.(Numerics.Rng.int rng (Array.length rows)) in
  let f = log_uniform rng 1e6 1e9 in
  Power_core.Calibration.problem_of_row tech ~f row

let check_close ~what ~tol problem expected actual =
  if rel actual expected > tol then
    Alcotest.failf "%s: seeded %.12g vs oracle %.12g (rel %.3g, tech %s, f=%.4g)"
      what actual expected (rel actual expected)
      (Device.Technology.name problem.Pl.tech)
      problem.Pl.f

let test_seeded_matches_grid () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let rng = Numerics.Rng.create 20060501 in
      let checked = ref 0 and drawn = ref 0 in
      while !checked < min_cases do
        incr drawn;
        if !drawn > max_draws then
          Alcotest.failf "only %d/%d comparable cases in %d draws" !checked
            min_cases max_draws;
        let problem = random_problem rng in
        let oracle = N.optimum_grid problem in
        (* On-boundary optima are clamps, not stationary points: the two
           refinement paths may stop on different sides of the wall. Skip
           them (the population keeps >200 interior cases). *)
        let lo, hi = Pl.vdd_search_range in
        if
          Float.is_finite oracle.Pl.total
          && oracle.Pl.vdd > lo +. 0.01
          && oracle.Pl.vdd < hi -. 0.01
        then begin
          incr checked;
          let seeded = N.optimum problem in
          check_close ~what:"vdd" ~tol:1e-6 problem oracle.Pl.vdd
            seeded.Pl.vdd;
          check_close ~what:"ptot" ~tol:1e-6 problem oracle.Pl.total
            seeded.Pl.total;
          (* A warm start from a deliberately bad neighbour (up to ±10%
             off) must still fall into the same basin. *)
          let off = 0.90 +. Numerics.Rng.float rng 0.2 in
          let from = Pl.at problem ~vdd:(seeded.Pl.vdd *. off) in
          let warm = N.optimum ~from problem in
          check_close ~what:"warm vdd" ~tol:1e-6 problem oracle.Pl.vdd
            warm.Pl.vdd;
          check_close ~what:"warm ptot" ~tol:1e-6 problem oracle.Pl.total
            warm.Pl.total
        end
      done;
      (* The comparison is only meaningful if the seeded fast path was
         actually exercised (not just fallback-vs-oracle, which is the
         same code on both sides). *)
      let counters = Obs.counters () in
      let count name =
        Option.value ~default:0 (List.assoc_opt name counters)
      in
      if count "opt.seeded_solves" < min_cases / 2 then
        Alcotest.failf "seeded path taken only %d times in %d cases"
          (count "opt.seeded_solves") !checked)

let test_fallback_counts () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      (* Push the throughput up in octaves until chi*A exceeds 1: there
         Eq. 13 is infeasible, no seed exists, and [optimum] must fall
         back to the grid scan. *)
      let row = P.table1_find "RCA" in
      (* [problem_of_row] recalibrates chi' to the requested frequency, so
         its closed form is f-invariant; fixing the params and raising f
         through [Power_law.make] is what actually drives chi*A past 1. *)
      let params =
        Power_core.Calibration.params_of_row Device.Technology.ll
          ~f:P.frequency row
      in
      let problem_at f = Pl.make Device.Technology.ll params ~f in
      let rec first_infeasible f =
        if f > 1e13 then
          Alcotest.fail "no infeasible frequency below 10 THz"
        else
          match Power_core.Closed_form.evaluate (problem_at f) with
          | _ -> first_infeasible (2.0 *. f)
          | exception Power_core.Closed_form.Infeasible _ -> f
      in
      let problem = problem_at (first_infeasible 1e8) in
      ignore (N.optimum problem);
      let counters = Obs.counters () in
      let count name =
        Option.value ~default:0 (List.assoc_opt name counters)
      in
      Alcotest.(check int) "one fallback" 1 (count "opt.seed_fallbacks");
      Alcotest.(check int) "no seeded solve" 0 (count "opt.seeded_solves");
      if count "opt.grid_evals" <= 0 then
        Alcotest.fail "fallback did not run the grid scan";
      (* And a seedable problem leaves the fallback counter alone. *)
      ignore (N.optimum (problem_at P.frequency));
      let counters = Obs.counters () in
      Alcotest.(check int) "still one fallback" 1
        (Option.value ~default:0 (List.assoc_opt "opt.seed_fallbacks" counters)))

let () =
  Alcotest.run "solver_equiv"
    [
      ( "differential",
        [
          Alcotest.test_case "seeded optimum matches grid oracle (1e-6)" `Slow
            test_seeded_matches_grid;
          Alcotest.test_case "unseedable problems fall back to the grid"
            `Quick test_fallback_counts;
        ] );
    ]
