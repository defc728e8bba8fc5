(* Device models: constants, Table 2 technologies, alpha-power law,
   linearisation (Eq. 7). *)

let check_close eps = Alcotest.(check (float eps))

let test_thermal_voltage () =
  check_close 1e-4 "Ut at 300K" 0.02585
    (Device.Constants.thermal_voltage ~temperature:300.0)

let test_table2_values () =
  let check name (t : Device.Technology.t) vth0 io zeta alpha =
    check_close 1e-9 (name ^ " vth0") vth0 t.vth0_nom;
    check_close 1e-12 (name ^ " io") io t.io;
    check_close 1e-15 (name ^ " zeta_ro") zeta t.zeta_ro;
    check_close 1e-9 (name ^ " alpha") alpha t.alpha;
    check_close 1e-9 (name ^ " vdd_nom") 1.2 t.vdd_nom;
    check_close 1e-9 (name ^ " n") 1.33 t.n
  in
  check "ULL" Device.Technology.ull 0.466 2.11e-6 7.5e-12 1.95;
  check "LL" Device.Technology.ll 0.354 3.34e-6 5.5e-12 1.86;
  check "HS" Device.Technology.hs 0.328 7.08e-6 6.1e-12 1.58

let test_technology_names () =
  Alcotest.(check (list string))
    "names" [ "ULL"; "LL"; "HS" ]
    (List.map Device.Technology.name Device.Technology.all)

let test_gate_zeta () =
  let t = Device.Technology.ll in
  check_close 1e-18 "gate zeta = zeta_ro / divisor"
    (t.zeta_ro /. t.ring_divisor)
    (Device.Technology.gate_zeta t);
  let t2 = Device.Technology.with_ring_divisor 10.0 t in
  check_close 1e-18 "with_ring_divisor" (t.zeta_ro /. 10.0)
    (Device.Technology.gate_zeta t2)

let test_vth_nom_effective () =
  let t = Device.Technology.ll in
  check_close 1e-9 "DIBL at nominal"
    (t.vth0_nom -. (t.eta *. t.vdd_nom))
    (Device.Technology.vth_nom_effective t)

let test_on_current_continuity () =
  (* At overdrive e*n*Ut/alpha the alpha-power current equals Io: the
     model's continuity point with sub-threshold conduction. *)
  let t = Device.Technology.ll in
  let overdrive = Float.exp 1.0 *. Device.Technology.n_ut t /. t.alpha in
  let vth = 0.3 in
  check_close 1e-12 "Ion(Vth + e n Ut / alpha) = Io" t.io
    (Device.Alpha_power.on_current t ~vdd:(vth +. overdrive) ~vth)

let test_on_current_rejects_subthreshold () =
  Alcotest.(check bool)
    "vdd <= vth rejected" true
    (match Device.Alpha_power.on_current Device.Technology.ll ~vdd:0.3 ~vth:0.3 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_on_current_monotone =
  QCheck.Test.make ~name:"Ion increases with Vdd" ~count:200
    QCheck.(pair (float_range 0.4 1.2) (float_range 0.01 0.3))
    (fun (vdd, step) ->
      let t = Device.Technology.ll in
      let vth = 0.3 in
      Device.Alpha_power.on_current t ~vdd:(vdd +. step) ~vth
      > Device.Alpha_power.on_current t ~vdd ~vth)

let prop_off_current_decreasing =
  QCheck.Test.make ~name:"Ioff decreases with Vth" ~count:200
    QCheck.(pair (float_range 0.0 0.5) (float_range 0.01 0.2))
    (fun (vth, step) ->
      let t = Device.Technology.ll in
      Device.Alpha_power.off_current t ~vth:(vth +. step)
      < Device.Alpha_power.off_current t ~vth)

let test_off_current_slope () =
  (* One decade of leakage per n*Ut*ln(10) of threshold. *)
  let t = Device.Technology.ll in
  let decade = Device.Technology.n_ut t *. Float.log 10.0 in
  let ratio =
    Device.Alpha_power.off_current t ~vth:0.2
    /. Device.Alpha_power.off_current t ~vth:(0.2 +. decade)
  in
  check_close 1e-6 "decade per 79mV" 10.0 ratio

let test_delay_scaling_nominal () =
  let t = Device.Technology.ll in
  check_close 1e-12 "unity at nominal" 1.0
    (Device.Alpha_power.delay_scaling t ~vdd:t.vdd_nom
       ~vth:(Device.Technology.vth_nom_effective t))

let test_delay_grows_at_low_vdd () =
  let t = Device.Technology.ll in
  let vth = Device.Technology.vth_nom_effective t in
  Alcotest.(check bool)
    "slower at 0.6 V" true
    (Device.Alpha_power.delay_scaling t ~vdd:0.6 ~vth > 1.0)

let test_gate_delay_positive () =
  let t = Device.Technology.ll in
  Alcotest.(check bool)
    "positive" true
    (Device.Alpha_power.gate_delay t ~zeta:80e-15 ~vdd:1.0 ~vth:0.3 > 0.0)

(* Linearisation (Eq. 7, Figure 2). *)

let test_linearization_matches_paper () =
  let lin = Device.Linearization.fit ~alpha:1.86 () in
  check_close 5e-3 "A = 0.671" Power_core.Paper_data.lin_a lin.a;
  check_close 5e-3 "B = 0.347" Power_core.Paper_data.lin_b lin.b

let test_linearization_error_small () =
  (* Figure 2 shows the fit hugging the curve; the worst deviation over the
     0.3-1.0 V range stays below ~0.03 in Vdd^(1/alpha) units. *)
  let lin = Device.Linearization.fit ~alpha:1.86 () in
  Alcotest.(check bool) "max error < 0.03" true (lin.max_error < 0.03)

let test_linearization_figure2_series () =
  let lin = Device.Linearization.fit ~alpha:1.5 () in
  let series = Device.Linearization.figure2_series lin ~samples:11 in
  Alcotest.(check int) "sample count" 11 (List.length series);
  List.iter
    (fun (vdd, exact, linear) ->
      check_close 1e-9 "exact is vdd^(1/alpha)" (vdd ** (1.0 /. 1.5)) exact;
      Alcotest.(check bool)
        "fit within max error" true
        (Float.abs (exact -. linear) <= lin.max_error +. 1e-9))
    series

let test_linearization_validation () =
  let bad f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "alpha <= 0" true
    (bad (fun () -> Device.Linearization.fit ~alpha:0.0 ()));
  Alcotest.(check bool) "lo >= hi" true
    (bad (fun () -> Device.Linearization.fit ~alpha:1.5 ~lo:1.0 ~hi:0.5 ()))

let prop_linearization_bound =
  QCheck.Test.make ~name:"linear fit within max_error on the range"
    ~count:200
    QCheck.(pair (float_range 1.2 2.2) (float_range 0.3 1.0))
    (fun (alpha, vdd) ->
      let lin = Device.Linearization.fit ~alpha () in
      Float.abs
        (Device.Linearization.eval_exact lin vdd
        -. Device.Linearization.eval_linear lin vdd)
      <= lin.max_error +. 1e-9)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "device"
    [
      ( "constants",
        [ Alcotest.test_case "thermal voltage" `Quick test_thermal_voltage ] );
      ( "technology",
        [
          Alcotest.test_case "table 2 values" `Quick test_table2_values;
          Alcotest.test_case "names" `Quick test_technology_names;
          Alcotest.test_case "gate zeta" `Quick test_gate_zeta;
          Alcotest.test_case "effective vth" `Quick test_vth_nom_effective;
        ] );
      ( "alpha_power",
        [
          Alcotest.test_case "continuity with Io" `Quick test_on_current_continuity;
          Alcotest.test_case "rejects vdd<=vth" `Quick test_on_current_rejects_subthreshold;
          Alcotest.test_case "subthreshold slope" `Quick test_off_current_slope;
          Alcotest.test_case "delay nominal" `Quick test_delay_scaling_nominal;
          Alcotest.test_case "delay at low vdd" `Quick test_delay_grows_at_low_vdd;
          Alcotest.test_case "gate delay positive" `Quick test_gate_delay_positive;
        ]
        @ qsuite [ prop_on_current_monotone; prop_off_current_decreasing ] );
      ( "linearization",
        [
          Alcotest.test_case "matches paper A/B" `Quick test_linearization_matches_paper;
          Alcotest.test_case "error small" `Quick test_linearization_error_small;
          Alcotest.test_case "figure2 series" `Quick test_linearization_figure2_series;
          Alcotest.test_case "validation" `Quick test_linearization_validation;
        ]
        @ qsuite [ prop_linearization_bound ] );
    ]
