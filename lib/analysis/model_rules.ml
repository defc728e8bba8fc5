module T = Device.Technology

let model_loc ?parameter model = Diagnostic.Model_loc { model; parameter }

let diag rule model ?parameter ?severity ?fix_hint message =
  let meta = Rule.find rule in
  Diagnostic.make ~rule
    ~severity:(Option.value severity ~default:meta.Rule.severity)
    ~location:(model_loc ?parameter model)
    ?fix_hint message

(* --- Technology parameter ranges --- *)

let in_range (lo, hi) x = x >= lo && x <= hi

let technology (tech : T.t) =
  let name = T.name tech in
  let positive =
    List.filter_map
      (fun (parameter, v) ->
        if v > 0.0 then None
        else
          Some
            (diag "model.tech-range" name ~parameter
               ~fix_hint:"fix the technology record - Table 2 values are \
                          all positive"
               (Printf.sprintf "%s = %g must be positive" parameter v)))
      [
        ("io", tech.io);
        ("zeta_ro", tech.zeta_ro);
        ("ring_divisor", tech.ring_divisor);
        ("cell_cap", tech.cell_cap);
        ("temperature", tech.temperature);
        ("vdd_nom", tech.vdd_nom);
      ]
  in
  let ordered =
    if tech.vdd_nom > tech.vth0_nom then []
    else
      [
        diag "model.tech-range" name ~parameter:"vth0_nom"
          ~fix_hint:"a nominal threshold at or above the nominal supply \
                     leaves no operating window"
          (Printf.sprintf "vth0_nom = %.3f V >= vdd_nom = %.3f V"
             tech.vth0_nom tech.vdd_nom);
      ]
  in
  let alpha =
    if in_range T.alpha_valid_range tech.alpha then []
    else
      let lo, hi = T.alpha_valid_range in
      [
        diag "model.alpha-range" name ~parameter:"alpha"
          ~fix_hint:"re-extract alpha from the ring-oscillator fit \
                     (Spice.Param_extract)"
          (Printf.sprintf "alpha = %.2f outside [%g, %g]" tech.alpha lo hi);
      ]
  in
  let slope =
    if in_range T.slope_valid_range tech.n then []
    else
      let lo, hi = T.slope_valid_range in
      [
        diag "model.slope-range" name ~parameter:"n"
          ~fix_hint:"re-extract n from the sub-threshold I-V slope"
          (Printf.sprintf "n = %.2f outside [%g, %g]" tech.n lo hi);
      ]
  in
  positive @ ordered @ alpha @ slope

(* --- Calibration row sanity --- *)

let calibration_row (row : Power_core.Paper_data.table1_row) =
  let model = "table1/" ^ row.label in
  let bad parameter message hint =
    diag "model.calibration-range" model ~parameter ~fix_hint:hint message
  in
  let checks =
    [
      ( row.n_cells > 0,
        "n_cells",
        Printf.sprintf "N = %d must be positive" row.n_cells );
      (row.area > 0.0, "area", Printf.sprintf "area = %g um^2" row.area);
      ( row.activity > 0.0 && row.activity <= 8.0,
        "activity",
        Printf.sprintf "a = %g outside (0, 8]" row.activity );
      ( row.ld_eff >= 1.0,
        "ld_eff",
        Printf.sprintf "LDeff = %g below one gate delay" row.ld_eff );
      ( row.vdd > 0.0 && row.vdd <= 3.0,
        "vdd",
        Printf.sprintf "Vdd = %g V outside (0, 3]" row.vdd );
      ( row.vth > -0.5 && row.vth < 1.0,
        "vth",
        Printf.sprintf "Vth = %g V outside (-0.5, 1)" row.vth );
      ( row.vdd > row.vth,
        "vth",
        Printf.sprintf "Vth = %g V at or above Vdd = %g V" row.vth row.vdd );
      (row.pdyn > 0.0, "pdyn", Printf.sprintf "Pdyn = %g W" row.pdyn);
      (row.pstat > 0.0, "pstat", Printf.sprintf "Pstat = %g W" row.pstat);
      (row.ptot > 0.0, "ptot", Printf.sprintf "Ptot = %g W" row.ptot);
      ( row.ptot_eq13 > 0.0,
        "ptot_eq13",
        Printf.sprintf "Eq.13 Ptot = %g W" row.ptot_eq13 );
      ( Float.abs row.err_pct < 20.0,
        "err_pct",
        Printf.sprintf "published Eq. 13 error %g%% is implausibly large"
          row.err_pct );
    ]
  in
  let unit_hint = "check the units: the paper prints uW, the rows store W" in
  let structural =
    List.filter_map
      (fun (ok, parameter, message) ->
        if ok then None else Some (bad parameter message unit_hint))
      checks
  in
  let balance =
    (* The published split must add up to the published total (rounding
       slack only) - a unit slip on one component breaks this first. *)
    let sum = row.pdyn +. row.pstat in
    if row.ptot <= 0.0 || Float.abs (sum -. row.ptot) /. row.ptot <= 0.02 then
      []
    else
      [
        bad "ptot"
          (Printf.sprintf "Pdyn + Pstat = %g W but Ptot = %g W (%.1f%% off)"
             sum row.ptot
             (100.0 *. Float.abs (sum -. row.ptot) /. row.ptot))
          unit_hint;
      ]
  in
  structural @ balance

(* --- Optimisation-result audits --- *)

let audit_finite model values =
  List.filter_map
    (fun (parameter, v) ->
      match Numerics.Finite.violation v with
      | None -> None
      | Some violation ->
        Some
          (diag "model.finite" model ~parameter
             ~fix_hint:"clamp with Numerics.Finite before emitting, or \
                        treat the point as infeasible"
             (Printf.sprintf "%s = %s escaped into an emitted result"
                parameter
                (Numerics.Finite.violation_to_string violation))))
    values

(* Default bracket of Numerical_opt.optimum (the one shared constant,
   Power_law.vdd_search_range); a minimum within one coarse grid step of
   either end is a clamp, not a stationary point. *)
let sweep_lo, sweep_hi = Power_core.Power_law.vdd_search_range
let sweep_samples = 256

let optimisation ~label (problem : Power_core.Power_law.problem) =
  let tech = problem.tech in
  let closed_form, domain =
    match Power_core.Closed_form.evaluate problem with
    | result -> (Some result, [])
    | exception Power_core.Closed_form.Infeasible reason ->
      ( None,
        [
          diag "model.eq13-domain" label
            ~fix_hint:"lower the frequency or pick a faster architecture \
                       (chi*A must stay below 1)"
            (Printf.sprintf "closed form infeasible: %s" reason);
        ] )
  in
  let optimum =
    Power_core.Numerical_opt.optimum ~vdd_lo:sweep_lo ~vdd_hi:sweep_hi problem
  in
  let bracket =
    let step = (sweep_hi -. sweep_lo) /. float_of_int (sweep_samples - 1) in
    if optimum.vdd <= sweep_lo +. step || optimum.vdd >= sweep_hi -. step then
      [
        diag "model.sweep-bracket" label ~parameter:"vdd"
          ~fix_hint:"widen the Vdd sweep bracket"
          (Printf.sprintf
             "numerical optimum Vdd = %.3f V sits on the sweep boundary \
              [%.2f, %.2f]"
             optimum.vdd sweep_lo sweep_hi);
      ]
    else []
  in
  let region =
    let margin = optimum.vdd -. optimum.vth in
    let floor = T.strong_inversion_margin tech in
    if margin <= 0.0 then
      [
        diag "model.alpha-power-region" label ~parameter:"vdd-vth"
          ~severity:Diagnostic.Error
          ~fix_hint:"the operating point cannot switch - the calibration \
                     or the constraint is broken"
          (Printf.sprintf "optimal overdrive Vdd - Vth = %.3f V is not \
                           positive" margin);
      ]
    else if margin < floor then
      [
        diag "model.alpha-power-region" label ~parameter:"vdd-vth"
          ~fix_hint:"treat the alpha-power delay (and the optimum) as \
                     approximate below the strong-inversion floor"
          (Printf.sprintf
             "optimal overdrive Vdd - Vth = %.3f V is below the \
              strong-inversion floor %.3f V (3*n*Ut)"
             margin floor);
      ]
    else []
  in
  let newton =
    (* Cross-check the timing-constraint inversion: Newton on
       g(v) = v - (chi' v)^(1/alpha) - Vth* must land back on a supply
       solving Eq. 5. Cold-started from the nominal supply — at the
       optimum g is already zero and the check would be vacuous; from
       Vdd_nom it exercises the actual iteration, and an overshoot into
       v < 0 (where the fractional power is NaN) surfaces as Diverged. *)
    let chi_prime = problem.chi_prime and alpha = tech.alpha in
    let g v =
      (* Supplies <= 0 are outside the locus domain; NaN (rather than the
         builder's Invalid_argument) lets Newton classify the overshoot. *)
      if v <= 0.0 then Float.nan
      else Power_core.Power_law.vth_of_vdd problem v -. optimum.vth
    in
    let dg v =
      1.0 -. (chi_prime ** (1.0 /. alpha) *. (v ** ((1.0 /. alpha) -. 1.0))
              /. alpha)
    in
    match Numerics.Rootfind.newton ~f:g ~df:dg tech.vdd_nom with
    | _converged -> []
    | exception Numerics.Rootfind.Diverged { last; iterations; reason } ->
      [
        diag "model.newton-divergence" label ~parameter:"vdd"
          ~fix_hint:"the constraint locus is ill-conditioned here; check \
                     chi' and alpha"
          (Printf.sprintf
             "Newton inversion of Eq. 5 diverged (%s) after %d iterations \
              at Vdd = %g V"
             reason iterations last);
      ]
  in
  let finite =
    let closed_values =
      match closed_form with
      | None -> []
      | Some (r : Power_core.Closed_form.result) ->
        [
          ("vdd_opt", r.vdd_opt);
          ("vth_opt", r.vth_opt);
          ("ptot_eq13", r.ptot);
          ("ptot_eq11", r.ptot_eq11);
          ("chi", r.chi);
          ("one_minus_chi_a", r.one_minus_chi_a);
        ]
    in
    audit_finite label
      (closed_values
      @ [
          ("vdd", optimum.vdd);
          ("vth", optimum.vth);
          ("pdyn", optimum.dynamic);
          ("pstat", optimum.static);
          ("ptot", optimum.total);
        ])
  in
  domain @ bracket @ region @ newton @ finite
