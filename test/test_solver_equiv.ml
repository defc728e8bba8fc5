(* Differential tests of the seeded solver. Against the blind grid-scan
   oracle it replaced ([Oracles.Grid.optimum], the pre-seeding solver
   kept verbatim): both refine to tol 1e-9, so wherever the
   objective is unimodal they must land on the same minimum to well under
   1e-6 relative — in the supply AND in the power (the latter is flat at
   the optimum, so it agrees much tighter). Cases cover the calibrated
   Table 1 rows, the three technology flavors and three frequency decades
   from a fixed seed, so a failure reproduces exactly. Against the Brent
   reference core ([Oracles.Brent]): the Newton refinement lands on the
   same minimum from the same seed on every yield die, at the walls and
   where the objective overflows; and the analytic slope it follows
   ([Power_law.jet_into]) against the certifier's derivative enclosure
   and central differences. The certified solve (certify, then Newton
   in the certified bracket from its incumbent, then the walls) against
   the grid oracle and against its own composition, bit for bit. *)

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
        let oracle = Oracles.Grid.optimum problem in
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
         back to the certified solve: the refusal counted once, a seed
         from the certificate, no grid evaluation, and the grid oracle's
         minimum. *)
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
      let point = N.optimum problem in
      let counters = Obs.counters () in
      let count name =
        Option.value ~default:0 (List.assoc_opt name counters)
      in
      Alcotest.(check int) "one fallback" 1 (count "opt.seed_fallbacks");
      Alcotest.(check int) "one seeded solve" 1 (count "opt.seeded_solves");
      Alcotest.(check int) "no grid evaluation" 0 (count "opt.grid_evals");
      if count "cert.boxes" <= 0 then
        Alcotest.fail "fallback did not run the certifier";
      let oracle = Oracles.Grid.optimum problem in
      Alcotest.(check bool)
        "finite" true
        (Float.is_finite point.Pl.total && Float.is_finite oracle.Pl.total);
      check_close ~what:"vdd" ~tol:1e-6 problem oracle.Pl.vdd point.Pl.vdd;
      check_close ~what:"ptot" ~tol:1e-6 problem oracle.Pl.total
        point.Pl.total;
      (* And a seedable problem leaves the fallback counter alone. *)
      ignore (N.optimum (problem_at P.frequency));
      let counters = Obs.counters () in
      Alcotest.(check int) "still one fallback" 1
        (Option.value ~default:0 (List.assoc_opt "opt.seed_fallbacks" counters)))

let problem_label (p : Pl.problem) =
  Printf.sprintf "%s chi'=%.6g io=%.6g" (Device.Technology.name p.Pl.tech)
    p.Pl.chi_prime p.Pl.params.Power_core.Arch_params.io_cell

(* Newton and Brent from the same seed: the same basin, Ptot within
   1e-12 and the supply within 1e-7 relative where the minimum is finite;
   non-finite on both sides otherwise. Newton's [fx] is the objective at
   its [x], bit for bit. *)
let check_same_minimum ~what c (n : Numerics.Minimize.result)
    (b : Numerics.Minimize.result) =
  let fx = Pl.objective c n.x in
  if Int64.bits_of_float fx <> Int64.bits_of_float n.fx then
    Alcotest.failf "%s: fx %h is not objective x = %h" what n.fx fx;
  if Float.is_finite b.fx || Float.is_finite n.fx then begin
    if rel n.fx b.fx > 1e-12 then
      Alcotest.failf "%s: Ptot newton %.17g vs brent %.17g (rel %.3g)" what
        n.fx b.fx (rel n.fx b.fx);
    if rel n.x b.x > 1e-7 then
      Alcotest.failf "%s: Vdd newton %.17g vs brent %.17g (rel %.3g)" what n.x
        b.x (rel n.x b.x)
  end

(* Every yield-sobol problem (Table 1 row x flavor) over 4,096 scrambled
   Sobol dies, drawn and chained as [Variation.yield_mc] does: 64-die warm
   chains from the nominal optimum, each side following its own chain. *)
let test_newton_matches_brent_on_dies () =
  let spread = Power_core.Variation.default_spread in
  let dies = 4096 and chain = 64 in
  let newton_evals = ref 0 and solves = ref 0 in
  List.iter
    (fun tech ->
      List.iter
        (fun (row : P.table1_row) ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let nominal = N.optimum problem in
          let sobol =
            Numerics.Sobol.create
              ~scramble:(Numerics.Rng.split_nth (Numerics.Rng.create 2006) 0)
              ~dims:4 ()
          in
          let nq = Numerics.Stats.normal_quantile in
          let pt = Array.make 4 0.0 in
          let from_n = ref nominal.Pl.vdd and from_b = ref nominal.Pl.vdd in
          for i = 0 to dies - 1 do
            if i mod chain = 0 then begin
              from_n := nominal.Pl.vdd;
              from_b := nominal.Pl.vdd
            end;
            Numerics.Sobol.point_into sobol i pt;
            let c =
              Pl.coeffs
                (Oracles.Variation.apply_factors problem
                   ~leak_factor:(Float.exp (spread.sigma_leak *. nq pt.(0)))
                   ~cap_factor:
                     (Float.max 0.5 (1.0 +. (spread.sigma_cap *. nq pt.(1))))
                   ~speed_factor:(Float.exp (spread.sigma_speed *. nq pt.(2)))
                   ~alpha:
                     (Float.max 1.1
                        (problem.tech.alpha
                        +. (spread.sigma_alpha *. nq pt.(3)))))
            in
            let n = N.warm_solve ~from:!from_n c in
            let b = Oracles.Brent.warm_solve ~from:!from_b c in
            check_same_minimum
              ~what:(Printf.sprintf "%s/%s die %d" row.label
                       (Device.Technology.name tech) i)
              c n b;
            newton_evals := !newton_evals + n.iterations;
            incr solves;
            from_n := n.x;
            from_b := b.x
          done)
        P.table1)
    Device.Technology.all;
  (* Newton's point: about 5 evaluations per die where Brent needs 13. *)
  let per_die = float_of_int !newton_evals /. float_of_int !solves in
  if per_die > 7.0 then
    Alcotest.failf "%.2f Newton evaluations per die (budget 7)" per_die

(* The slope Newton follows: [p] is [total_on_locus] bit for bit, [dp]
   lies inside the certifier's enclosure of dPtot/dVdd on the degenerate
   box, and [dp] / [d2p] match central differences of [p] / [dp]. *)
let test_jet () =
  let module Iv = Numerics.Interval in
  let problems =
    List.concat_map
      (fun tech ->
        List.map
          (fun row ->
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row)
          P.table1)
      Device.Technology.all
    @ Oracles.Problems.seeded ~seed:83 ~n:10 Device.Technology.all
  in
  let j = { Pl.p = 0.0; dp = 0.0; d2p = 0.0 } in
  let jet c v = Pl.jet_into c v j; (j.p, j.dp, j.d2p) in
  List.iter
    (fun (t : Pl.problem) ->
      let c = Pl.coeffs t in
      let f = Iv.of_float t.f in
      let chi_prime = Pl.chi_prime_iv t ~f in
      for k = 0 to 60 do
        let v = 0.05 *. Float.pow 60.0 (float_of_int k /. 60.0) in
        let p, dp, d2p = jet c v in
        if Int64.bits_of_float p <> Int64.bits_of_float (Pl.total_on_locus c v)
        then
          Alcotest.failf "%s: p %h is not total_on_locus" (problem_label t) v;
        if Float.is_finite p then begin
          let d =
            Pl.dptot_on_constraint_iv t ~f
              (Pl.locus_iv t ~chi_prime (Iv.of_float v))
          in
          if not (Iv.contains d dp) then
            Alcotest.failf "%s: dp(%.17g) = %.17g outside [%.17g, %.17g]"
              (problem_label t) v dp d.lo d.hi;
          let h = 1e-6 *. v in
          let pl, dpl, _ = jet c (v -. h) and pr, dpr, _ = jet c (v +. h) in
          (* Differences of p and dp lose everything below their own
             magnitude, so the slack is scaled by those magnitudes. *)
          let fd = (pr -. pl) /. (2.0 *. h) in
          if Float.abs (fd -. dp) > 1e-6 *. (Float.abs dp +. (p /. v)) then
            Alcotest.failf "%s at %.6g: dp %.12g vs difference %.12g"
              (problem_label t) v dp fd;
          let fd2 = (dpr -. dpl) /. (2.0 *. h) in
          if
            Float.abs (fd2 -. d2p)
            > 1e-5 *. (Float.abs d2p +. ((Float.abs dp +. (p /. v)) /. v))
          then
            Alcotest.failf "%s at %.6g: d2p %.12g vs difference %.12g"
              (problem_label t) v d2p fd2
        end
      done)
    problems

let scaled ?(chi = 1.0) ?(io = 1.0) tech label =
  let p =
    Power_core.Calibration.problem_of_row tech ~f:P.frequency
      (P.table1_find label)
  in
  {
    p with
    Pl.chi_prime = p.Pl.chi_prime *. chi;
    params =
      { p.params with
        Power_core.Arch_params.io_cell = p.params.io_cell *. io };
  }

let seeds = [ 0.05; 0.07; 0.1; 0.3; 0.6; 1.0; 1.5; 2.0; 2.5; 2.9; 3.0 ]

(* Minima pinned at the walls of the default bracket: leakage negligible
   puts the minimum at 0.05 V, leakage overwhelming at 3.0 V. From every
   seed Newton finds Brent's minimum, and where that is the wall Newton
   stops on the wall itself. (With overwhelming leakage the locus keeps
   its second, small-Vdd basin at the 0.05 V wall, where seeds below the
   local maximum stay.) The cold solve lands on the wall. *)
let test_walls () =
  let lo, hi = Pl.vdd_search_range in
  let check wall (t : Pl.problem) =
    let grid = Oracles.Grid.optimum t in
    if rel grid.Pl.vdd wall > 1e-6 then
      Alcotest.failf "%s: the grid minimum %.9g is not on the %g V wall"
        (problem_label t) grid.Pl.vdd wall;
    let c = Pl.coeffs t in
    List.iter
      (fun seed ->
        let n = N.warm_solve ~from:seed c in
        let b = Oracles.Brent.warm_solve ~from:seed c in
        let what = Printf.sprintf "%s seed %g" (problem_label t) seed in
        check_same_minimum ~what c n b;
        if rel b.x wall <= 1e-6 && n.x <> wall then
          Alcotest.failf "%s: Newton stopped at %.17g, not on the wall" what
            n.x)
      seeds;
    let cold = N.optimum t in
    if cold.Pl.vdd <> wall then
      Alcotest.failf "%s: cold optimum %.17g is not on the wall"
        (problem_label t) cold.Pl.vdd
  in
  List.iter
    (fun tech ->
      check lo (scaled ~io:1e-9 tech "RCA");
      check lo (scaled ~io:1e-9 tech "Sequential");
      check hi (scaled ~io:1e30 tech "RCA");
      check hi (scaled ~io:1e30 tech "Wallace"))
    Device.Technology.all

(* Seeds where the objective is not finite. On the locus the leakage
   exponent (g - v)/nUt grows with the supply wherever g/(alpha v) > 1,
   which for a large chi' holds over the whole bracket, so the total
   overflows at the top: for these problems Ptot is finite at small Vdd
   and infinite above about 1 V (HS) or 2.5 V (LL), with the minimum on
   the 0.05 V wall. (For vdd > 0 the model has no overflow at small
   Vdd: g - v tends to 0 with v.) A seed just inside the overflow region
   must slide back to that wall; from deep inside it, no finite point is
   in reach of the expansion and both cores return a non-finite total —
   never an exception, never a finite but different point. [optimum
   ~from] then solves again through the certificate: from every seed it
   returns the grid oracle's finite wall minimum. *)
let test_non_finite_seeds () =
  List.iter
    (fun (t : Pl.problem) ->
      let c = Pl.coeffs t in
      let infinite = List.filter (fun v -> Pl.objective c v = infinity) seeds in
      if infinite = [] then
        Alcotest.failf "%s: no seed in the overflow region" (problem_label t);
      let grid = Oracles.Grid.optimum t in
      List.iter
        (fun seed ->
          let what = Printf.sprintf "%s seed %g" (problem_label t) seed in
          check_same_minimum ~what c (N.warm_solve ~from:seed c)
            (Oracles.Brent.warm_solve ~from:seed c);
          let warm = N.optimum ~from:(Pl.at t ~vdd:seed) t in
          if not (Float.is_finite warm.Pl.total) then
            Alcotest.failf "%s: optimum ~from is not finite" what;
          check_close ~what:(what ^ " vdd") ~tol:1e-6 t grid.Pl.vdd
            warm.Pl.vdd;
          check_close ~what:(what ^ " ptot") ~tol:1e-6 t grid.Pl.total
            warm.Pl.total)
        seeds;
      (* The first overflowing supply, approached from below: the 2 %
         triple straddles the edge and the solve is finite. *)
      let rec edge lo hi =
        if hi -. lo < 1e-6 then hi
        else
          let mid = 0.5 *. (lo +. hi) in
          if Pl.objective c mid = infinity then edge lo mid else edge mid hi
      in
      let seed = edge 0.05 (List.hd infinite) *. 1.001 in
      let n = N.warm_solve ~from:seed c in
      check_same_minimum
        ~what:(Printf.sprintf "%s edge seed %.9g" (problem_label t) seed)
        c n (Oracles.Brent.warm_solve ~from:seed c);
      if n.x <> fst Pl.vdd_search_range then
        Alcotest.failf "%s: the edge seed %.9g stopped at %.17g, not 0.05 V"
          (problem_label t) seed n.x)
    [
      scaled ~chi:1000.0 Device.Technology.hs "RCA";
      scaled ~chi:1000.0 Device.Technology.ll "RCA";
      scaled ~chi:1000.0 Device.Technology.hs "Wallace";
    ]

(* Certify first, then Newton in the certified bracket: the grid
   oracle's minimum (supply and power to 1e-6 relative, the same
   finiteness) on the explorer's candidates and on seeded problems from
   1/100 to 10^5 times their frequency. These include minima on the
   0.05 V wall, where the incumbent sits elsewhere and only the wall
   comparison finds them, a wall minimum with an interior local minimum
   a few percent above it, and problems whose total overflows
   everywhere. The point lies in the bracket or on a wall it reaches. *)
let certified_problems =
  lazy
    (Lazy.force Oracles.Problems.explorer
    @ Oracles.Problems.seeded
        ~fmults:[ 0.01; 0.1; 1.0; 10.0; 100.0; 1e3; 1e4; 1e5 ]
        ~seed:25 ~n:250 Device.Technology.all)

let test_certified_matches_grid () =
  let lo, hi = Pl.vdd_search_range in
  let walls = ref 0 and infinite = ref 0 in
  List.iter
    (fun (t : Pl.problem) ->
      let point, cert = N.certified_optimum t in
      let grid = Oracles.Grid.optimum t in
      let what = problem_label t ^ Printf.sprintf " f=%.6g" t.Pl.f in
      let finite = Float.is_finite point.Pl.total in
      if finite <> Float.is_finite grid.Pl.total then
        Alcotest.failf "%s: certified total %.17g vs grid %.17g" what
          point.Pl.total grid.Pl.total;
      if finite then begin
        check_close ~what:(what ^ " vdd") ~tol:1e-6 t grid.Pl.vdd point.Pl.vdd;
        check_close ~what:(what ^ " ptot") ~tol:1e-6 t grid.Pl.total
          point.Pl.total;
        let br = cert.Power_core.Absint.vdd_bracket in
        if
          not
            (Numerics.Interval.contains br point.Pl.vdd
            || point.Pl.vdd = lo || point.Pl.vdd = hi)
        then
          Alcotest.failf "%s: %.17g outside the bracket %s" what point.Pl.vdd
            (Numerics.Interval.to_string br);
        if point.Pl.vdd = lo || point.Pl.vdd = hi then incr walls
      end
      else incr infinite)
    (Lazy.force certified_problems);
  (* The population must hold the cases the wall comparison is for. *)
  if !walls = 0 || !infinite = 0 then
    Alcotest.failf "%d wall minima and %d non-finite problems" !walls
      !infinite

(* The composition itself, bit for bit: the certificate is
   [Absint.certify]'s, and the point is the 2 % seeded core
   ([warm_solve]) from the incumbent inside the bracket, replaced by a
   wall the bracket reaches only where the wall is strictly lower. On
   these problems a midpoint seed lands in the same basin, so only the
   bits tell the two apart. *)
let test_certified_composition () =
  let module Iv = Numerics.Interval in
  let module Ab = Power_core.Absint in
  let lo, hi = Pl.vdd_search_range in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (t : Pl.problem) ->
      let point, cert = N.certified_optimum t in
      let ref_cert = Ab.certify (Ab.box t) in
      let c = Pl.coeffs t in
      let br = ref_cert.Ab.vdd_bracket in
      let x =
        if br.Iv.lo < br.Iv.hi then
          (N.warm_solve ~vdd_lo:br.Iv.lo ~vdd_hi:br.Iv.hi
             ~from:ref_cert.Ab.vdd_best c)
            .x
        else br.Iv.lo
      in
      let x =
        List.fold_left
          (fun x (reached, wall) ->
            if reached && Pl.objective c wall < Pl.objective c x then wall
            else x)
          x
          [ (br.Iv.lo <= lo, lo); (br.Iv.hi >= hi, hi) ]
      in
      let same_iv a b =
        bits a.Iv.lo = bits b.Iv.lo && bits a.Iv.hi = bits b.Iv.hi
      in
      if
        not
          (same_iv cert.Ab.ptot ref_cert.Ab.ptot
          && same_iv cert.Ab.vdd_bracket br
          && bits cert.Ab.vdd_best = bits ref_cert.Ab.vdd_best)
      then
        Alcotest.failf "%s: the certificate is not certify's" (problem_label t);
      if bits point.Pl.vdd <> bits x then
        Alcotest.failf "%s: vdd %h, the incumbent-seeded solve gives %h"
          (problem_label t) point.Pl.vdd x)
    (Lazy.force certified_problems)

let () =
  Alcotest.run "solver_equiv"
    [
      ( "differential",
        [
          Alcotest.test_case "seeded optimum matches grid oracle (1e-6)" `Slow
            test_seeded_matches_grid;
          Alcotest.test_case
            "unseedable problems fall back to the certified solve" `Quick
            test_fallback_counts;
        ] );
      ( "newton",
        [
          Alcotest.test_case "Newton = Brent on 4,096 dies x 39 problems" `Slow
            test_newton_matches_brent_on_dies;
          Alcotest.test_case "analytic slope and curvature" `Quick test_jet;
          Alcotest.test_case "minima pinned at the walls" `Quick test_walls;
          Alcotest.test_case "seeds where Ptot overflows" `Quick
            test_non_finite_seeds;
        ] );
      ( "certified",
        [
          Alcotest.test_case "certified optimum matches grid oracle" `Quick
            test_certified_matches_grid;
          Alcotest.test_case "incumbent seed, then the walls, bit for bit"
            `Quick test_certified_composition;
        ] );
    ]
