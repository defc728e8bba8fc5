(* The streaming yield engine and its numerics: sketch accuracy and merge
   associativity, Sobol determinism and discrepancy, QMC-vs-MC quantile
   error, pool-size-independent results, and the differential oracle
   against the list-based [monte_carlo]. *)

module P = Power_core.Paper_data
module V = Power_core.Variation
module Sk = Numerics.Sketch
module Rng = Numerics.Rng

let base_problem () =
  Power_core.Calibration.problem_of_row Device.Technology.ll ~f:P.frequency
    (P.table1_find "Wallace")

let check_bits name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.17g = %.17g" name a b)
    true
    (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let rel a b = Float.abs (a -. b) /. Float.max 1e-300 (Float.abs b)

(* ---------------------------------------------------------------- *)
(* Sketches                                                          *)
(* ---------------------------------------------------------------- *)

(* The sketch's guarantee: each returned quantile is within relative
   error [alpha] of the exact order statistic it rounds to. 200 seeded
   cases across sizes, scales and signs. *)
let test_quantile_sketch_accuracy () =
  for case = 0 to 199 do
    let rng = Rng.create (1000 + case) in
    let n = 5 + Rng.int rng 396 in
    let scale = Float.exp (Rng.gaussian rng ~mu:0.0 ~sigma:3.0) in
    let sign = if case mod 3 = 0 then -1.0 else 1.0 in
    let data =
      Array.init n (fun _ ->
          sign *. scale *. Float.exp (Rng.gaussian rng ~mu:0.0 ~sigma:1.0))
    in
    let q = Sk.Quantile.create () in
    Array.iter (Sk.Quantile.add q) data;
    let sorted = Array.copy data in
    Array.sort compare sorted;
    List.iter
      (fun p ->
        let rank =
          int_of_float
            (Float.round (p /. 100.0 *. float_of_int (n - 1)))
        in
        let exact = sorted.(rank) in
        let est = Sk.Quantile.quantile q p in
        if
          Float.abs (est -. exact)
          > (Sk.Quantile.alpha q *. 1.02 *. Float.abs exact) +. 1e-12
        then
          Alcotest.failf
            "case %d n %d p %g: sketch %.9g vs exact %.9g (rel %.3e)" case n
            p est exact (rel est exact))
      [ 1.0; 25.0; 50.0; 75.0; 95.0; 99.0 ]
  done

let test_quantile_merge_associative () =
  let rng = Rng.create 42 in
  let data =
    Array.init 3000 (fun i ->
        let v = Float.exp (Rng.gaussian rng ~mu:0.0 ~sigma:2.0) in
        if i mod 7 = 0 then -.v else v)
  in
  let part lo hi =
    let q = Sk.Quantile.create () in
    for i = lo to hi - 1 do
      Sk.Quantile.add q data.(i)
    done;
    q
  in
  (* (A + B) + C versus A + (B + C) versus the single-stream sketch:
     integer bucket counts make the merge exactly associative, so all
     three answer bitwise-identically. *)
  let left = part 0 1000 in
  Sk.Quantile.merge_into left (part 1000 2000);
  Sk.Quantile.merge_into left (part 2000 3000);
  let bc = part 1000 2000 in
  Sk.Quantile.merge_into bc (part 2000 3000);
  let right = part 0 1000 in
  Sk.Quantile.merge_into right bc;
  let whole = part 0 3000 in
  Alcotest.(check int) "counts" 3000 (Sk.Quantile.count left);
  List.iter
    (fun p ->
      let l = Sk.Quantile.quantile left p in
      check_bits "left vs right" l (Sk.Quantile.quantile right p);
      check_bits "left vs single-stream" l (Sk.Quantile.quantile whole p))
    [ 1.0; 10.0; 50.0; 90.0; 99.0 ]

let test_moments_merge () =
  let rng = Rng.create 43 in
  let data = Array.init 5000 (fun _ -> Rng.gaussian rng ~mu:5.0 ~sigma:0.3) in
  let part lo hi =
    let m = Sk.Moments.create () in
    for i = lo to hi - 1 do
      Sk.Moments.add m data.(i)
    done;
    m
  in
  let left = part 0 2000 in
  Sk.Moments.merge_into left (part 2000 3500);
  Sk.Moments.merge_into left (part 3500 5000);
  let bc = part 2000 3500 in
  Sk.Moments.merge_into bc (part 3500 5000);
  let right = part 0 2000 in
  Sk.Moments.merge_into right bc;
  let whole = part 0 5000 in
  Alcotest.(check int) "count" 5000 (Sk.Moments.count left);
  (* Float sums: associative only to rounding — 1e-12 relative, not
     bitwise (which is why the engine fixes the merge order). *)
  Alcotest.(check bool) "mean assoc" true
    (rel (Sk.Moments.mean left) (Sk.Moments.mean right) < 1e-12);
  Alcotest.(check bool) "mean vs stream" true
    (rel (Sk.Moments.mean left) (Sk.Moments.mean whole) < 1e-12);
  Alcotest.(check bool) "stddev vs stream" true
    (rel (Sk.Moments.stddev left) (Sk.Moments.stddev whole) < 1e-9);
  (* Min/max and the exact reference. *)
  let s = Sk.Moments.summary left in
  let exact = Numerics.Stats.summarize_array (Array.copy data) in
  check_bits "min" s.min_value exact.min_value;
  check_bits "max" s.max_value exact.max_value;
  Alcotest.(check bool) "stddev vs two-pass" true
    (rel s.stddev exact.stddev < 1e-9)

let test_yield_curve_merge () =
  let rng = Rng.create 44 in
  let specs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let data = Array.init 2000 (fun _ -> Rng.float rng 5.0) in
  let part lo hi =
    let y = Sk.Yield.create ~specs in
    for i = lo to hi - 1 do
      Sk.Yield.add y data.(i)
    done;
    y
  in
  let merged = part 0 700 in
  Sk.Yield.merge_into merged (part 700 2000);
  let whole = part 0 2000 in
  Alcotest.(check bool) "curve merge exact" true
    (Sk.Yield.curve merged = Sk.Yield.curve whole);
  (* Cross-check the curve against brute-force counting. *)
  Array.iter
    (fun (spec, frac) ->
      let count =
        Array.fold_left (fun k v -> if v <= spec then k + 1 else k) 0 data
      in
      check_bits "curve fraction" frac (float_of_int count /. 2000.0))
    (Sk.Yield.curve whole)

(* ---------------------------------------------------------------- *)
(* Sobol                                                             *)
(* ---------------------------------------------------------------- *)

let test_sobol_determinism () =
  let s1 = Numerics.Sobol.create ~scramble:(Rng.create 9) ~dims:4 () in
  let s2 = Numerics.Sobol.create ~scramble:(Rng.create 9) ~dims:4 () in
  let s3 = Numerics.Sobol.create ~scramble:(Rng.create 10) ~dims:4 () in
  let differs = ref false in
  for n = 0 to 199 do
    let p1 = Numerics.Sobol.point s1 n and p2 = Numerics.Sobol.point s2 n in
    Alcotest.(check bool)
      (Printf.sprintf "point %d reproducible" n)
      true (p1 = p2);
    if Numerics.Sobol.point s3 n <> p1 then differs := true
  done;
  Alcotest.(check bool) "scramble seed matters" true !differs;
  (* Unscrambled dimension 0 is the van der Corput sequence (midpoint
     convention shifts every coordinate by 2^-33). *)
  let plain = Numerics.Sobol.create ~dims:2 () in
  List.iteri
    (fun i expected ->
      let p = Numerics.Sobol.point plain (i + 1) in
      Alcotest.(check bool)
        (Printf.sprintf "van der Corput %d" (i + 1))
        true
        (Float.abs (p.(0) -. expected) < 1e-9))
    [ 0.5; 0.75; 0.25; 0.375; 0.875 ]

(* The chunk cursor against random access: from random starts (small,
   mid-range and near 2^31) over random lengths, in every dimension count,
   with and without scramble, every written point equals [point_into]'s
   bit for bit. *)
let test_sobol_cursor () =
  let rng = Rng.create 46 in
  for dims = 1 to Numerics.Sobol.max_dims do
    List.iter
      (fun scramble ->
        let s = Numerics.Sobol.create ?scramble ~dims () in
        let got = Array.make dims 0.0 and want = Array.make dims 0.0 in
        for case = 0 to 11 do
          let start =
            match case mod 3 with
            | 0 -> Rng.int rng 64
            | 1 -> Rng.int rng 1_000_000
            | _ -> (1 lsl 31) - 1 - Rng.int rng 5000
          in
          let len = 1 + Rng.int rng 3000 in
          let cursor = Numerics.Sobol.cursor s start in
          for n = start to start + len - 1 do
            Numerics.Sobol.next_into cursor got;
            Numerics.Sobol.point_into s n want;
            for d = 0 to dims - 1 do
              if
                not
                  (Int64.equal (Int64.bits_of_float got.(d))
                     (Int64.bits_of_float want.(d)))
              then
                Alcotest.failf "dims %d start %d point %d dim %d: %h vs %h"
                  dims start n d got.(d) want.(d)
            done
          done
        done)
      [ None; Some (Rng.create (100 + dims)) ]
  done

let star_discrepancy_1d points =
  let xs = Array.copy points in
  Array.sort compare xs;
  let n = Array.length xs in
  let worst = ref 0.0 in
  Array.iteri
    (fun i x ->
      worst :=
        Float.max !worst
          (Float.max
             (Float.abs (x -. (float_of_int i /. float_of_int n)))
             (Float.abs (x -. (float_of_int (i + 1) /. float_of_int n)))))
    xs;
  !worst

let star_discrepancy_2d points =
  let n = Array.length points in
  let worst = ref 0.0 in
  for ia = 1 to 16 do
    for ib = 1 to 16 do
      let a = float_of_int ia /. 16.0 and b = float_of_int ib /. 16.0 in
      let inside =
        Array.fold_left
          (fun k (x, y) -> if x < a && y < b then k + 1 else k)
          0 points
      in
      worst :=
        Float.max !worst
          (Float.abs ((float_of_int inside /. float_of_int n) -. (a *. b)))
    done
  done;
  !worst

let test_sobol_discrepancy () =
  let n = 512 in
  let sobol = Numerics.Sobol.create ~dims:2 () in
  let rng = Rng.create 3 in
  let sob_pts =
    Array.init n (fun i ->
        let p = Numerics.Sobol.point sobol i in
        (p.(0), p.(1)))
  in
  let mc_pts =
    Array.init n (fun _ ->
        let x = Rng.float rng 1.0 in
        let y = Rng.float rng 1.0 in
        (x, y))
  in
  let d1_sob = star_discrepancy_1d (Array.map fst sob_pts) in
  let d1_mc = star_discrepancy_1d (Array.map fst mc_pts) in
  Alcotest.(check bool)
    (Printf.sprintf "1d: sobol %.4f < pseudo %.4f" d1_sob d1_mc)
    true (d1_sob < d1_mc);
  let d2_sob = star_discrepancy_2d sob_pts in
  let d2_mc = star_discrepancy_2d mc_pts in
  Alcotest.(check bool)
    (Printf.sprintf "2d: sobol %.4f < pseudo %.4f" d2_sob d2_mc)
    true (d2_sob < d2_mc)

(* The acceptance criterion on the engine itself: against a 200k-die
   pseudo-random reference, the Sobol sampler with a QUARTER of the dies
   must estimate the mean and the sketch quantiles at least as well (RMS
   over seeds) as the pseudo-random sampler. Fully deterministic — fixed
   seeds, fixed outcome. *)
let test_qmc_beats_mc_quantile () =
  let problem = base_problem () in
  let rms errs =
    sqrt
      (List.fold_left (fun a e -> a +. (e *. e)) 0.0 errs
      /. float_of_int (List.length errs))
  in
  let reference =
    V.yield_mc ~dies:200_000 ~rng:(Rng.create 999) problem
  in
  let errors sampler dies seed =
    let r = V.yield_mc ~dies ~sampler ~rng:(Rng.create seed) problem in
    ( r.V.ptot.summary.mean -. reference.V.ptot.summary.mean,
      r.V.ptot.q50 -. reference.V.ptot.q50,
      r.V.ptot.q95 -. reference.V.ptot.q95 )
  in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let pseudo = List.map (errors `Pseudo 8000) seeds in
  let sobol = List.map (errors `Sobol 2000) seeds in
  let compare_stat name pick =
    let p = rms (List.map pick pseudo) and s = rms (List.map pick sobol) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: sobol@2k rms %.3e <= pseudo@8k rms %.3e" name s p)
      true (s <= p)
  in
  compare_stat "mean" (fun (m, _, _) -> m);
  compare_stat "q50" (fun (_, q, _) -> q);
  compare_stat "q95" (fun (_, _, q) -> q)

(* ---------------------------------------------------------------- *)
(* Engine                                                            *)
(* ---------------------------------------------------------------- *)

(* Bitwise pool-size independence at 10^5 dies, both samplers: the result
   record, the rendered report and the normalized Obs counter fingerprint
   must all be identical at -j 1 / 4 / 8. *)
let test_yield_deterministic_across_jobs () =
  let problem = base_problem () in
  let fingerprint sampler jobs =
    Parallel.Pool.set_default_jobs jobs;
    Obs.set_enabled true;
    Obs.reset ();
    let rng = Rng.create 2006 in
    let r = V.yield_mc ~dies:100_000 ~sampler ~rng problem in
    let counters = Obs.counters ~normalize:true () in
    Obs.set_enabled false;
    Obs.reset ();
    (r, Report.Studies.render_yield r, counters)
  in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.set_default_jobs 2)
    (fun () ->
      List.iter
        (fun sampler ->
          let name =
            match sampler with `Pseudo -> "pseudo" | `Sobol -> "sobol"
          in
          let r1, s1, c1 = fingerprint sampler 1 in
          let r4, s4, c4 = fingerprint sampler 4 in
          let r8, s8, c8 = fingerprint sampler 8 in
          Alcotest.(check bool) (name ^ ": result j1=j4") true (r1 = r4);
          Alcotest.(check bool) (name ^ ": result j1=j8") true (r1 = r8);
          Alcotest.(check string) (name ^ ": render j1=j4") s1 s4;
          Alcotest.(check string) (name ^ ": render j1=j8") s1 s8;
          Alcotest.(check (list (pair string int)))
            (name ^ ": counters j1=j4") c1 c4;
          Alcotest.(check (list (pair string int)))
            (name ^ ": counters j1=j8") c1 c8)
        [ `Pseudo; `Sobol ])

(* The 50-die differential oracle: the engine's [`Pseudo] sampler must
   draw bitwise the same per-die parameters as [monte_carlo] (sequential
   splits = indexed splits), and the streamed statistics must agree with
   the list-based ones. *)
let test_yield_vs_monte_carlo () =
  let problem = base_problem () in
  let spread = V.default_spread in
  let seq = Rng.create 7 and indexed = Rng.create 7 in
  for i = 0 to 49 do
    let a = V.draw_factors spread (Rng.split seq) problem in
    let b = V.draw_factors spread (Rng.split_nth indexed i) problem in
    let l1, c1, s1, al1, _ = a and l2, c2, s2, al2, _ = b in
    check_bits (Printf.sprintf "die %d leak" i) l1 l2;
    check_bits (Printf.sprintf "die %d cap" i) c1 c2;
    check_bits (Printf.sprintf "die %d speed" i) s1 s2;
    check_bits (Printf.sprintf "die %d alpha" i) al1 al2
  done;
  let mc = V.monte_carlo ~samples:50 ~rng:(Rng.create 7) problem in
  let ym = V.yield_mc ~dies:50 ~chunk:64 ~chain:16 ~rng:(Rng.create 7) problem in
  Alcotest.(check int) "counts" 50 ym.ptot.summary.count;
  Alcotest.(check bool) "mean" true
    (rel ym.ptot.summary.mean mc.ptot_stats.mean < 1e-6);
  Alcotest.(check bool) "stddev" true
    (rel ym.ptot.summary.stddev mc.ptot_stats.stddev < 1e-6);
  Alcotest.(check bool) "min" true
    (rel ym.ptot.summary.min_value mc.ptot_stats.min_value < 1e-6);
  Alcotest.(check bool) "max" true
    (rel ym.ptot.summary.max_value mc.ptot_stats.max_value < 1e-6);
  (* p95 interpolates between order statistics, q95 rounds to one — at 50
     dies they may sit one tail gap apart. *)
  Alcotest.(check bool) "q95" true (rel ym.ptot.q95 mc.ptot_p95 < 0.05);
  Alcotest.(check bool) "vdd mean" true
    (rel ym.vdd.summary.mean mc.vdd_stats.mean < 1e-6)

(* Every Table 1 row x flavor: the 39 problems the yield-sobol workload
   plays. *)
let table1_problems () =
  List.concat_map
    (fun tech ->
      List.map
        (fun row ->
          Power_core.Calibration.problem_of_row tech ~f:P.frequency row)
        P.table1)
    Device.Technology.all

(* The hoisted objective against the record path: [total_on_locus] equals
   [(at t ~vdd).total] bit for bit, non-finite totals included, and
   [objective] is that total with [infinity] for vdd <= 0 and for every
   non-finite total. The seeded and Table 1 problems are joined by ones
   whose leakage overflows (a huge chi') and, with Io = 0, turns NaN. *)
let test_objective_bits () =
  let module Pl = Power_core.Power_law in
  let rng = Rng.create 47 in
  let base = base_problem () in
  let overflow = { base with Pl.chi_prime = 1e6 } in
  let nan =
    {
      overflow with
      Pl.params = { base.Pl.params with Power_core.Arch_params.io_cell = 0.0 };
    }
  in
  let problems =
    (overflow :: nan :: table1_problems ())
    @ Oracles.Problems.seeded ~seed:47 ~n:20 Device.Technology.all
  in
  let non_finite = ref 0 in
  List.iter
    (fun (t : Pl.problem) ->
      let c = Pl.coeffs t in
      let vdds =
        [ 0.0; -0.0; -1.0; Float.min_float; 1e-300; 0.05; 3.0; 1e150; 1e300 ]
        @ List.init 200 (fun _ -> Float.exp (Rng.float rng 30.0 -. 15.0))
      in
      List.iter
        (fun vdd ->
          let expected =
            if vdd <= 0.0 then infinity
            else begin
              let total = (Pl.at t ~vdd).total in
              check_bits
                (Printf.sprintf "total_on_locus %h" vdd)
                (Pl.total_on_locus c vdd) total;
              if Float.is_finite total then total
              else begin
                incr non_finite;
                infinity
              end
            end
          in
          check_bits
            (Printf.sprintf "Power_law.objective %h" vdd)
            (Pl.objective c vdd) expected)
        vdds)
    problems;
  Alcotest.(check bool) "non-finite totals exercised" true (!non_finite > 0);
  let nan_total = (Pl.at nan ~vdd:1.0).total in
  Alcotest.(check bool) "a NaN total exercised" true (Float.is_nan nan_total)

(* The one-pass engine against the reference chunk body (factor arrays,
   per-die problem records, [solve_chain_into]), compared through
   [Marshal]: both samplers at every pool size 1/2/4 over chunk shapes
   with a partial last chunk and chain, [chain = chunk], a single die and
   the default chunk; then all 39 Table 1 x flavor problems. The counter
   fingerprints are equal too. *)
let test_yield_vs_reference () =
  let check ~name ~dies ~chunk ~chain sampler problem =
    let run f =
      f ?spread:None ?dies:(Some dies) ?chunk:(Some chunk) ?chain:(Some chain)
        ?sampler:(Some sampler) ?specs:None ~rng:(Rng.create 2006) problem
    in
    let r = run V.yield_mc and o = run Oracles.Variation.yield_mc in
    if Marshal.to_string r [] <> Marshal.to_string o [] then
      Alcotest.failf "%s: yield_mc differs from the reference" name
  in
  let sampler_name = function `Pseudo -> "pseudo" | `Sobol -> "sobol" in
  let problem = base_problem () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.set_default_jobs 2)
    (fun () ->
      List.iter
        (fun jobs ->
          Parallel.Pool.set_default_jobs jobs;
          List.iter
            (fun sampler ->
              List.iter
                (fun (dies, chunk, chain) ->
                  check
                    ~name:
                      (Printf.sprintf "%s -j %d dies %d chunk %d chain %d"
                         (sampler_name sampler) jobs dies chunk chain)
                    ~dies ~chunk ~chain sampler problem)
                [
                  (1000, 256, 64);
                  (513, 128, 128);
                  (300, 64, 16);
                  (1, 64, 64);
                  (4196, 4096, 64);
                ])
            [ `Pseudo; `Sobol ])
        [ 1; 2; 4 ];
      List.iteri
        (fun i p ->
          List.iter
            (fun sampler ->
              check
                ~name:(Printf.sprintf "problem %d %s" i (sampler_name sampler))
                ~dies:300 ~chunk:128 ~chain:32 sampler p)
            [ `Pseudo; `Sobol ])
        (table1_problems ());
      let counters f =
        Obs.set_enabled true;
        Obs.reset ();
        ignore
          (f ?spread:None ?dies:(Some 3000) ?chunk:(Some 1024) ?chain:(Some 64)
             ?sampler:(Some `Sobol) ?specs:None ~rng:(Rng.create 7) problem);
        let c = Obs.counters ~normalize:true () in
        Obs.set_enabled false;
        Obs.reset ();
        c
      in
      Alcotest.(check (list (pair string int)))
        "counters" (counters Oracles.Variation.yield_mc) (counters V.yield_mc))

let test_yield_misc_contracts () =
  let problem = base_problem () in
  let rng = Rng.create 3 in
  let before = Rng.copy rng in
  let r = V.yield_mc ~dies:100 ~chunk:64 ~chain:16 ~rng problem in
  (* The caller's generator is not advanced: the run is a pure function of
     its state. *)
  Alcotest.(check bool) "rng untouched" true
    (Int64.equal (Rng.next_int64 rng) (Rng.next_int64 before));
  (* The yield curve is a CDF on an increasing grid. *)
  let prev = ref (-1.0) in
  Array.iter
    (fun (_, y) ->
      Alcotest.(check bool) "monotone" true (y >= !prev && y >= 0.0 && y <= 1.0);
      prev := y)
    r.yield_curve;
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "dies < 1" (fun () ->
      V.yield_mc ~dies:0 ~rng:(Rng.create 1) problem);
  expect_invalid "chain < 1" (fun () ->
      V.yield_mc ~dies:10 ~chain:0 ~rng:(Rng.create 1) problem);
  expect_invalid "chunk not multiple" (fun () ->
      V.yield_mc ~dies:10 ~chunk:100 ~chain:64 ~rng:(Rng.create 1) problem)

let () =
  Parallel.Pool.set_default_jobs 2;
  Alcotest.run "yield"
    [
      ( "sketch",
        [
          Alcotest.test_case "quantile accuracy (200 cases)" `Quick
            test_quantile_sketch_accuracy;
          Alcotest.test_case "quantile merge associative" `Quick
            test_quantile_merge_associative;
          Alcotest.test_case "moments merge" `Quick test_moments_merge;
          Alcotest.test_case "yield curve merge" `Quick test_yield_curve_merge;
        ] );
      ( "sobol",
        [
          Alcotest.test_case "determinism" `Quick test_sobol_determinism;
          Alcotest.test_case "star discrepancy" `Quick test_sobol_discrepancy;
          Alcotest.test_case "cursor = point_into" `Quick test_sobol_cursor;
          Alcotest.test_case "qmc beats mc at N/4" `Quick
            test_qmc_beats_mc_quantile;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bitwise across -j 1/4/8" `Quick
            test_yield_deterministic_across_jobs;
          Alcotest.test_case "differential oracle vs monte_carlo" `Quick
            test_yield_vs_monte_carlo;
          Alcotest.test_case "contracts" `Quick test_yield_misc_contracts;
          Alcotest.test_case "objective = Power_law.at bits" `Quick
            test_objective_bits;
          Alcotest.test_case "yield_mc = reference chunk body" `Quick
            test_yield_vs_reference;
        ] );
    ]
