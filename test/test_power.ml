(* The paper's core model: Eqs. 1-6 (Power_law), the closed form (Eqs. 7-13),
   the numerical optimiser, calibration and the Section 4/5 utilities. *)

module P = Power_core.Paper_data

let tech = Device.Technology.ll
let f = P.frequency
let check_close eps = Alcotest.(check (float eps))

let rca_problem () =
  Power_core.Calibration.problem_of_row tech ~f (P.table1_find "RCA")

(* Power_law *)

let test_chi_roundtrip () =
  let problem = rca_problem () in
  let vdd = 0.5 in
  let vth = Power_core.Power_law.vth_of_vdd problem vdd in
  check_close 1e-9 "chi' recovered" problem.chi_prime
    (Power_core.Power_law.chi_prime_of_point tech ~vdd ~vth)

let test_vdd_of_vth_inverse () =
  let problem = rca_problem () in
  let vdd = 0.7 in
  let vth = Power_core.Power_law.vth_of_vdd problem vdd in
  check_close 1e-8 "inverse" vdd (Power_core.Power_law.vdd_of_vth problem vth)

let test_pdyn_quadratic () =
  let problem = rca_problem () in
  let p1 = Power_core.Power_law.pdyn problem ~vdd:0.5 in
  let p2 = Power_core.Power_law.pdyn problem ~vdd:1.0 in
  check_close 1e-9 "4x at double vdd" 4.0 (p2 /. p1)

let test_pstat_exponential () =
  let problem = rca_problem () in
  let n_ut = Device.Technology.n_ut tech in
  let p1 = Power_core.Power_law.pstat problem ~vdd:1.0 ~vth:0.2 in
  let p2 = Power_core.Power_law.pstat problem ~vdd:1.0 ~vth:(0.2 +. n_ut) in
  check_close 1e-9 "e-fold per nUt" (Float.exp 1.0) (p1 /. p2)

let test_breakdown_consistency () =
  let problem = rca_problem () in
  let b = Power_core.Power_law.at problem ~vdd:0.6 in
  check_close 1e-15 "total = dyn + stat" b.total (b.dynamic +. b.static);
  let b2 = Power_core.Power_law.at_free problem ~vdd:0.6 ~vth:b.vth in
  check_close 1e-15 "at = at_free on locus" b.total b2.total

let test_meets_timing_boundary () =
  let problem = rca_problem () in
  let vdd = 0.6 in
  let vth = Power_core.Power_law.vth_of_vdd problem vdd in
  Alcotest.(check bool)
    "on the locus" true
    (Power_core.Power_law.meets_timing problem ~vdd ~vth:(vth -. 1e-6));
  Alcotest.(check bool)
    "above the locus fails" false
    (Power_core.Power_law.meets_timing problem ~vdd ~vth:(vth +. 0.05))

let test_published_point_on_locus () =
  (* The calibrated chi' puts the paper's published optimal couple exactly
     on the constraint. *)
  let row = P.table1_find "Wallace" in
  let problem = Power_core.Calibration.problem_of_row tech ~f row in
  check_close 1e-9 "vth at the published vdd" row.vth
    (Power_core.Power_law.vth_of_vdd problem row.vdd)

let test_chi_linear_def () =
  let problem = rca_problem () in
  check_close 1e-12 "chi = chi'^(1/alpha)"
    (problem.chi_prime ** (1.0 /. tech.alpha))
    (Power_core.Power_law.chi_linear problem)

(* Closed_form *)

let test_eq13_all_rows_within_3pct () =
  (* The headline claim of the paper, re-established on our solvers. *)
  List.iter
    (fun (row : P.table1_row) ->
      let problem = Power_core.Calibration.problem_of_row tech ~f row in
      let opt = Power_core.Numerical_opt.optimum problem in
      let cf = Power_core.Closed_form.evaluate problem in
      let err = Float.abs ((cf.ptot -. opt.total) /. opt.total) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: |err| = %.2f%% < 3%%" row.label (100.0 *. err))
        true (err < 0.03))
    P.table1

let test_eq13_matches_paper_column () =
  (* Our Eq. 13 value should land near the paper's own Eq. 13 column. *)
  List.iter
    (fun (row : P.table1_row) ->
      let problem = Power_core.Calibration.problem_of_row tech ~f row in
      let cf = Power_core.Closed_form.evaluate problem in
      let err = Float.abs ((cf.ptot -. row.ptot_eq13) /. row.ptot_eq13) in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 5%% of published Eq.13 (%.2f%%)" row.label
           (100.0 *. err))
        true (err < 0.05))
    P.table1

let test_eq13_vs_eq11 () =
  let problem = rca_problem () in
  let cf = Power_core.Closed_form.evaluate problem in
  check_close 0.05 "Eq.13 ~ Eq.11 (relative)" 1.0 (cf.ptot /. cf.ptot_eq11)

let test_closed_form_optimum_location () =
  let problem = rca_problem () in
  let cf = Power_core.Closed_form.evaluate problem in
  let opt = Power_core.Numerical_opt.optimum problem in
  Alcotest.(check bool)
    "vdd within 5%" true
    (Float.abs ((cf.vdd_opt -. opt.vdd) /. opt.vdd) < 0.05);
  Alcotest.(check bool)
    "vth within 10%" true
    (Float.abs ((cf.vth_opt -. opt.vth) /. opt.vth) < 0.10)

let test_infeasible_raised () =
  let params =
    Power_core.Calibration.params_of_row tech ~f (P.table1_find "RCA")
  in
  (* Absurd logical depth: cannot meet 31.25 MHz. *)
  let slow = Power_core.Arch_params.scale ~ld_eff:1000.0 params in
  let problem = Power_core.Power_law.make tech slow ~f in
  Alcotest.(check bool)
    "Infeasible" true
    (match Power_core.Closed_form.evaluate problem with
    | _ -> false
    | exception Power_core.Closed_form.Infeasible _ -> true)

(* Numerical_opt *)

let test_optimum_not_above_sweep () =
  let problem = rca_problem () in
  let opt = Power_core.Numerical_opt.optimum problem in
  let sweep =
    Power_core.Numerical_opt.sweep_vdd ~samples:150 ~vdd_lo:0.1 ~vdd_hi:1.5
      problem
  in
  List.iter
    (fun (p : Power_core.Numerical_opt.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "optimum <= sweep at %.2f V" p.vdd)
        true
        (opt.total <= p.total +. 1e-12))
    sweep

let test_grid2_agrees_with_constrained () =
  (* Positive slack never helps: the free 2-D optimum sits on the timing
     constraint and matches the 1-D search. *)
  let problem = rca_problem () in
  let opt1 = Power_core.Numerical_opt.optimum problem in
  let opt2 =
    Oracles.Grid2.optimum ~vdd_range:(0.2, 1.0) ~vth_range:(0.05, 0.5)
      ~samples:220 problem
  in
  Alcotest.(check bool)
    (Printf.sprintf "within 2%% (%.2f vs %.2f uW)" (opt1.total *. 1e6)
       (opt2.total *. 1e6))
    true
    (Float.abs ((opt2.total -. opt1.total) /. opt1.total) < 0.02)

let test_dyn_static_ratio () =
  let p : Power_core.Numerical_opt.point =
    { vdd = 1.0; vth = 0.3; dynamic = 6.0; static = 2.0; total = 8.0 }
  in
  check_close 1e-12 "ratio" 3.0 (Power_core.Numerical_opt.dyn_static_ratio p)

(* Calibration *)

let test_calibration_roundtrip () =
  (* The inverted parameters reproduce the published Pdyn/Pstat at the
     published operating point. *)
  List.iter
    (fun (row : P.table1_row) ->
      let problem = Power_core.Calibration.problem_of_row tech ~f row in
      let b =
        Power_core.Power_law.at_free problem ~vdd:row.vdd ~vth:row.vth
      in
      check_close (row.pdyn *. 1e-9) (row.label ^ " pdyn") row.pdyn b.dynamic;
      check_close (row.pstat *. 1e-9) (row.label ^ " pstat") row.pstat b.static)
    P.table1

let test_implied_zeta_scale () =
  List.iter
    (fun (row : P.table1_row) ->
      let zeta = Power_core.Calibration.implied_gate_zeta tech ~f row in
      Alcotest.(check bool)
        (Printf.sprintf "%s zeta %.1f fF in [20, 300]" row.label (zeta *. 1e15))
        true
        (zeta > 20e-15 && zeta < 300e-15))
    P.table1

let test_ring_divisor_fit () =
  let divisor = Power_core.Calibration.fit_ring_divisor tech ~f P.table1 in
  Alcotest.(check bool)
    (Printf.sprintf "divisor %.1f in [40, 100]" divisor)
    true
    (divisor > 40.0 && divisor < 100.0)

let test_cap_scale_ordering () =
  let pairs which targets =
    ignore which;
    List.map (fun (t : P.wallace_row) -> (P.table1_find t.w_label, t)) targets
  in
  let ull =
    Power_core.Calibration.fit_cap_scale Device.Technology.ull ~f
      ~rows:(pairs `Ull P.table3_ull)
  in
  let hs =
    Power_core.Calibration.fit_cap_scale Device.Technology.hs ~f
      ~rows:(pairs `Hs P.table4_hs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "ULL scale %.2f near 1" ull)
    true
    (ull > 0.8 && ull < 1.4);
  Alcotest.(check bool)
    (Printf.sprintf "HS scale %.2f well above ULL's" hs)
    true (hs > ull +. 0.3)

(* Paper_data *)

let test_paper_data_shape () =
  Alcotest.(check int) "13 rows" 13 (List.length P.table1);
  Alcotest.(check int) "3 ULL rows" 3 (List.length P.table3_ull);
  Alcotest.(check int) "3 HS rows" 3 (List.length P.table4_hs);
  Alcotest.(check int) "3 LL wallace rows" 3 (List.length P.wallace_ll);
  check_close 1.0 "frequency" 31.25e6 P.frequency;
  Alcotest.(check bool)
    "unknown label raises" true
    (match P.table1_find "nope" with
    | _ -> false
    | exception Not_found -> true)

let test_paper_data_consistency () =
  (* Published Ptot = Pdyn + Pstat (rounding tolerance), err column matches
     the Eq13/numerical pair. *)
  List.iter
    (fun (row : P.table1_row) ->
      check_close (row.ptot *. 2e-4) (row.label ^ " ptot sum")
        row.ptot (row.pdyn +. row.pstat);
      let err = 100.0 *. (row.ptot_eq13 -. row.ptot) /. row.ptot in
      (* The paper's sign convention is numerical-vs-eq13. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s err column consistent (%.2f vs %.2f)" row.label err
           row.err_pct)
        true
        (Float.abs (Float.abs err -. Float.abs row.err_pct) < 0.15))
    P.table1

(* Transform *)

let rca_params () =
  Power_core.Calibration.params_of_row tech ~f (P.table1_find "RCA")

let test_transform_parallelize_helps_rca () =
  let ratio =
    Power_core.Transform.predicted_ratio tech ~f (rca_params ())
      (Power_core.Transform.parallelize ~copies:2 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f < 1" ratio)
    true (ratio < 1.0);
  (* And close to the published 147.57/191.44 = 0.77. *)
  Alcotest.(check bool) "near the paper's ratio" true
    (Float.abs (ratio -. 0.77) < 0.15)

let test_transform_sequentialize_hurts () =
  let ratio =
    Power_core.Transform.predicted_ratio tech ~f (rca_params ())
      (Power_core.Transform.sequentialize ~cycles:16)
  in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f > 1.5" ratio) true (ratio > 1.5)

let test_transform_diagonal_tradeoff () =
  let params = rca_params () in
  let hor = (Power_core.Transform.pipeline_horizontal ~stages:4 ()).apply params in
  let diag = (Power_core.Transform.pipeline_diagonal ~stages:4 ()).apply params in
  Alcotest.(check bool) "diag LD shorter" true (diag.ld_eff < hor.ld_eff);
  Alcotest.(check bool) "diag activity higher" true (diag.activity > hor.activity)

let test_transform_validation () =
  Alcotest.(check bool)
    "copies < 2" true
    (match Power_core.Transform.parallelize ~copies:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "cycles < 2" true
    (match Power_core.Transform.sequentialize ~cycles:1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Tech_compare *)

let wallace_params () =
  Power_core.Calibration.params_of_row tech ~f (P.table1_find "Wallace")

let test_rank_ll_wins_at_paper_frequency () =
  let entries = Power_core.Tech_compare.rank ~f (wallace_params ()) in
  match entries with
  | first :: _ ->
    Alcotest.(check string)
      "LL first" "LL"
      (Device.Technology.name first.tech)
  | [] -> Alcotest.fail "no entries"

let test_rank_order_complete () =
  let entries = Power_core.Tech_compare.rank ~f (wallace_params ()) in
  Alcotest.(check int) "three entries" 3 (List.length entries);
  let totals =
    List.filter_map
      (fun (e : Power_core.Tech_compare.entry) ->
        Option.map (fun (p : Power_core.Numerical_opt.point) -> p.total) e.numerical)
      entries
  in
  Alcotest.(check bool)
    "sorted ascending" true
    (List.sort Float.compare totals = totals)

let test_adapt_params () =
  let params = wallace_params () in
  let adapted =
    Power_core.Tech_compare.adapt_params ~reference:tech Device.Technology.hs
      params
  in
  Alcotest.(check bool)
    "HS leaks more" true (adapted.io_cell > params.io_cell);
  Alcotest.(check bool)
    "HS caps bigger" true (adapted.avg_cap > params.avg_cap);
  Alcotest.(check (float 1e-9)) "N unchanged" params.n_cells adapted.n_cells

let test_crossover_hs_ll_exists () =
  match
    Power_core.Tech_compare.crossover_frequency Device.Technology.hs
      Device.Technology.ll (wallace_params ())
  with
  | Some fx ->
    Alcotest.(check bool)
      (Printf.sprintf "crossover at %.0f MHz above the paper's 31.25"
         (fx /. 1e6))
      true
      (fx > P.frequency && fx < 1e9)
  | None -> Alcotest.fail "expected an HS/LL crossover"

(* Arch_params *)

let test_arch_params_scale () =
  let params = rca_params () in
  let scaled = Power_core.Arch_params.scale ~n_cells:2.0 ~ld_eff:0.5 params in
  check_close 1e-9 "n doubled" (2.0 *. params.n_cells) scaled.n_cells;
  check_close 1e-9 "ld halved" (0.5 *. params.ld_eff) scaled.ld_eff;
  check_close 1e-9 "activity kept" params.activity scaled.activity

let prop_optimum_interior =
  QCheck.Test.make ~name:"optimum is interior over activity scalings"
    ~count:40
    QCheck.(float_range 0.05 3.0)
    (fun activity_scale ->
      let params =
        Power_core.Arch_params.scale ~activity:activity_scale (rca_params ())
      in
      let row = P.table1_find "RCA" in
      let problem =
        Power_core.Power_law.make_calibrated tech params ~f ~vdd_ref:row.vdd
          ~vth_ref:row.vth
      in
      let opt = Power_core.Numerical_opt.optimum problem in
      opt.vdd > 0.06 && opt.vdd < 2.9 && Float.is_finite opt.total)

(* Energy *)

let test_at_frequency_scales_chi () =
  let problem = rca_problem () in
  let doubled = Power_core.Power_law.at_frequency problem ~f:(2.0 *. f) in
  check_close 1e-15 "chi' doubles" (2.0 *. problem.chi_prime)
    doubled.chi_prime;
  Alcotest.(check bool)
    "f <= 0 rejected" true
    (match Power_core.Power_law.at_frequency problem ~f:0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_energy_u_shape () =
  let problem =
    Power_core.Calibration.problem_of_row tech ~f (P.table1_find "Wallace")
  in
  let mep = Power_core.Energy.minimum_energy_point problem in
  Alcotest.(check bool)
    "MEP inside the range" true
    (mep.f_mep > 0.2e6 && mep.f_mep < 400e6);
  Alcotest.(check bool) "MEP no worse than 1 MHz" true (mep.overhead_at 1e6 >= 1.0);
  Alcotest.(check bool)
    "MEP no worse than 300 MHz" true
    (mep.overhead_at 300e6 >= 1.0);
  check_close 1e-6 "overhead at MEP is 1" 1.0 (mep.overhead_at mep.f_mep)

let test_energy_sweep_vth_tracks_f () =
  (* Tighter timing forces lower thresholds. *)
  let problem =
    Power_core.Calibration.problem_of_row tech ~f (P.table1_find "Wallace")
  in
  let points = Power_core.Energy.sweep ~points:8 problem in
  let vths = List.map (fun (p : Power_core.Energy.sweep_point) -> p.vth) points in
  let sorted_desc = List.sort (fun a b -> Float.compare b a) vths in
  Alcotest.(check bool) "vth monotone decreasing with f" true (vths = sorted_desc)

let test_energy_consistent_with_power () =
  let problem = rca_problem () in
  let direct = (Power_core.Numerical_opt.optimum problem).total /. f in
  check_close (direct *. 1e-9) "definition" direct
    (Power_core.Energy.energy_per_op problem)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "power_core"
    [
      ( "power_law",
        [
          Alcotest.test_case "chi roundtrip" `Quick test_chi_roundtrip;
          Alcotest.test_case "vdd_of_vth inverse" `Quick test_vdd_of_vth_inverse;
          Alcotest.test_case "pdyn quadratic" `Quick test_pdyn_quadratic;
          Alcotest.test_case "pstat exponential" `Quick test_pstat_exponential;
          Alcotest.test_case "breakdown consistency" `Quick test_breakdown_consistency;
          Alcotest.test_case "timing boundary" `Quick test_meets_timing_boundary;
          Alcotest.test_case "published point on locus" `Quick
            test_published_point_on_locus;
          Alcotest.test_case "chi linear" `Quick test_chi_linear_def;
        ] );
      ( "closed_form",
        [
          Alcotest.test_case "all rows < 3%" `Quick test_eq13_all_rows_within_3pct;
          Alcotest.test_case "matches published Eq13" `Quick
            test_eq13_matches_paper_column;
          Alcotest.test_case "eq13 vs eq11" `Quick test_eq13_vs_eq11;
          Alcotest.test_case "optimum location" `Quick test_closed_form_optimum_location;
          Alcotest.test_case "infeasible" `Quick test_infeasible_raised;
        ] );
      ( "numerical_opt",
        [
          Alcotest.test_case "not above sweep" `Quick test_optimum_not_above_sweep;
          Alcotest.test_case "grid2 agreement" `Slow test_grid2_agrees_with_constrained;
          Alcotest.test_case "dyn/static ratio" `Quick test_dyn_static_ratio;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "roundtrip" `Quick test_calibration_roundtrip;
          Alcotest.test_case "implied zeta scale" `Quick test_implied_zeta_scale;
          Alcotest.test_case "ring divisor" `Quick test_ring_divisor_fit;
          Alcotest.test_case "cap scale ordering" `Slow test_cap_scale_ordering;
        ] );
      ( "paper_data",
        [
          Alcotest.test_case "shape" `Quick test_paper_data_shape;
          Alcotest.test_case "consistency" `Quick test_paper_data_consistency;
        ] );
      ( "transform",
        [
          Alcotest.test_case "parallelize helps RCA" `Quick
            test_transform_parallelize_helps_rca;
          Alcotest.test_case "sequentialize hurts" `Quick test_transform_sequentialize_hurts;
          Alcotest.test_case "diagonal tradeoff" `Quick test_transform_diagonal_tradeoff;
          Alcotest.test_case "validation" `Quick test_transform_validation;
        ] );
      ( "tech_compare",
        [
          Alcotest.test_case "LL wins at 31.25 MHz" `Quick
            test_rank_ll_wins_at_paper_frequency;
          Alcotest.test_case "rank order" `Quick test_rank_order_complete;
          Alcotest.test_case "adapt params" `Quick test_adapt_params;
          Alcotest.test_case "HS/LL crossover" `Slow test_crossover_hs_ll_exists;
        ] );
      ( "energy",
        [
          Alcotest.test_case "at_frequency scales chi" `Quick
            test_at_frequency_scales_chi;
          Alcotest.test_case "U shape" `Slow test_energy_u_shape;
          Alcotest.test_case "vth tracks f" `Slow test_energy_sweep_vth_tracks_f;
          Alcotest.test_case "definition" `Quick test_energy_consistent_with_power;
        ] );
      ( "arch_params",
        [ Alcotest.test_case "scale" `Quick test_arch_params_scale ]
        @ qsuite [ prop_optimum_interior ] );
    ]
