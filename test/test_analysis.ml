(* Static-analysis engine: one broken fixture per netlist rule (each
   triggering its rule exactly once), one out-of-region input per model
   rule, renderer shape checks, and the diagnostic ordering contract. *)

module C = Netlist.Circuit
module Cell = Netlist.Cell
module D = Analysis.Diagnostic
module T = Device.Technology

let lint = Analysis.Engine.lint_circuit

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1))
  in
  ln = 0 || go 0

let count_rule rule diags =
  List.length (List.filter (fun (d : D.t) -> d.rule = rule) diags)

let find_rule rule diags = List.find (fun (d : D.t) -> d.rule = rule) diags

let check_fires ?(expect = 1) rule diags =
  Alcotest.(check int) (rule ^ " fires") expect (count_rule rule diags)

(* --- Rule registry --- *)

let test_registry_complete () =
  Alcotest.(check int) "netlist rules" 9 (List.length Analysis.Rule.netlist);
  Alcotest.(check int) "model rules" 9 (List.length Analysis.Rule.model);
  Alcotest.(check int) "cert rules" 6 (List.length Analysis.Rule.cert);
  let ids = List.map (fun (m : Analysis.Rule.meta) -> m.id) Analysis.Rule.all in
  Alcotest.(check int)
    "ids unique"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      let m = Analysis.Rule.find id in
      Alcotest.(check string) "find roundtrip" id m.Analysis.Rule.id)
    ids

(* --- Netlist-rule fixtures --- *)

let test_clean_circuit () =
  let c = C.create "clean" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_gate c Cell.Inv [| a |]) "y";
  Alcotest.(check int) "no diagnostics" 0 (List.length (lint c))

let test_undriven () =
  let c = C.create "fix_undriven" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Inv [| a |] in
  C.mark_output c y "y";
  let floating = C.fresh_net c "floating" in
  (match C.driver c y with
  | Some (id, _) -> C.rewire_input c id 0 floating
  | None -> assert false);
  let diags = lint c in
  check_fires "net.undriven" diags;
  let d = find_rule "net.undriven" diags in
  Alcotest.(check bool) "is error" true (d.severity = D.Error);
  Alcotest.(check bool)
    "names the net" true
    (String.length d.message > 0
    && String.ends_with ~suffix:"has no driver" d.message)

let test_comb_cycle () =
  let c = C.create "fix_cycle" in
  let a = C.add_input c "a" in
  let y1 = C.add_gate c Cell.Inv [| a |] in
  let y2 = C.add_gate c Cell.Inv [| y1 |] in
  C.mark_output c y2 "y";
  (match C.driver c y1 with
  | Some (id, _) -> C.rewire_input c id 0 y2
  | None -> assert false);
  let diags = lint c in
  check_fires "net.comb-cycle" diags;
  Alcotest.(check bool)
    "is error" true
    ((find_rule "net.comb-cycle" diags).severity = D.Error);
  (* Timing-based rules must skip a cyclic circuit, not raise. *)
  check_fires ~expect:0 "net.unbalanced-pipeline" diags

let test_dangling_and_dead () =
  let c = C.create "fix_dead" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_gate c Cell.Inv [| a |]) "y";
  ignore (C.add_gate c Cell.And2 [| a; a |]);
  let diags = lint c in
  check_fires "net.dangling-output" diags;
  check_fires "net.dead-logic" diags;
  Alcotest.(check bool)
    "dangling non-tie is a warning" true
    ((find_rule "net.dangling-output" diags).severity = D.Warning)

let test_dangling_tie_is_info () =
  let c = C.create "fix_tie" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_gate c Cell.Inv [| a |]) "y";
  ignore (C.tie0 c);
  let diags = lint c in
  check_fires "net.dangling-output" diags;
  Alcotest.(check bool)
    "unread tie demoted to info" true
    ((find_rule "net.dangling-output" diags).severity = D.Info);
  (* A tie is a constant, not logic: the dead-logic rule stays silent. *)
  check_fires ~expect:0 "net.dead-logic" diags

let test_const_fold () =
  let c = C.create "fix_const" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_gate c Cell.And2 [| a; C.tie1 c |]) "y";
  let diags = lint c in
  check_fires "net.const-fold" diags;
  Alcotest.(check bool)
    "names the constant slot" true
    (String.ends_with ~suffix:"input 1 = 1"
       (find_rule "net.const-fold" diags).message)

let test_duplicate_cell () =
  let c = C.create "fix_dup" in
  let a = C.add_input c "a" and b = C.add_input c "b" in
  C.mark_output c (C.add_gate c Cell.Xor2 [| a; b |]) "y0";
  C.mark_output c (C.add_gate c Cell.Xor2 [| a; b |]) "y1";
  let diags = lint c in
  check_fires "net.duplicate-cell" diags;
  Alcotest.(check bool)
    "is info" true
    ((find_rule "net.duplicate-cell" diags).severity = D.Info)

let test_fanout_budget () =
  let c = C.create "fix_fanout" in
  let a = C.add_input c "a" and b = C.add_input c "b" in
  let y = C.add_gate c Cell.Xor2 [| a; b |] in
  for i = 0 to 32 do
    C.mark_output c (C.add_gate c Cell.Inv [| y |]) (Printf.sprintf "o%d" i)
  done;
  let diags = lint c in
  check_fires "net.fanout-budget" diags

let test_unused_input () =
  let c = C.create "fix_unused" in
  let a = C.add_input c "a" in
  let _b = C.add_input c "b" in
  C.mark_output c (C.add_gate c Cell.Inv [| a |]) "y";
  let diags = lint c in
  check_fires "net.unused-input" diags

let test_unbalanced_pipeline () =
  (* One AND gate with a 30-inverter chain on one input and the raw input
     on the other: per-gate input skew ~ the whole logical depth. *)
  let c = C.create "fix_skew" in
  let a = C.add_input c "a" in
  let n = ref a in
  for _ = 1 to 30 do
    n := C.add_gate c Cell.Inv [| !n |]
  done;
  C.mark_output c (C.add_gate c Cell.And2 [| a; !n |]) "y";
  let diags = lint c in
  check_fires "net.unbalanced-pipeline" diags

(* --- Model-rule fixtures --- *)

let custom label tech = { tech with T.flavor = T.Custom label }

let test_tech_range () =
  let diags = Analysis.Model_rules.technology (custom "neg-io" { T.ll with T.io = 0.0 }) in
  check_fires "model.tech-range" diags;
  let diags =
    Analysis.Model_rules.technology
      (custom "inverted" { T.ll with T.vth0_nom = 1.5 })
  in
  check_fires "model.tech-range" diags;
  Alcotest.(check int) "clean tech" 0
    (List.length (Analysis.Model_rules.technology T.ll))

let test_alpha_range () =
  let diags =
    Analysis.Model_rules.technology (custom "sq" { T.ll with T.alpha = 2.5 })
  in
  check_fires "model.alpha-range" diags

let test_slope_range () =
  let diags =
    Analysis.Model_rules.technology (custom "slope" { T.ll with T.n = 2.5 })
  in
  check_fires "model.slope-range" diags

let test_calibration_range () =
  let row = Power_core.Paper_data.table1_find "RCA" in
  Alcotest.(check int) "published row clean" 0
    (List.length (Analysis.Model_rules.calibration_row row));
  let bad = { row with Power_core.Paper_data.activity = 9.0 } in
  check_fires "model.calibration-range"
    (Analysis.Model_rules.calibration_row bad);
  (* A unit slip on one component breaks the published power split. *)
  let slipped = { row with Power_core.Paper_data.pdyn = row.pdyn *. 1e6 } in
  Alcotest.(check bool) "balance check fires" true
    (count_rule "model.calibration-range"
       (Analysis.Model_rules.calibration_row slipped)
    >= 1)

let fixture_params =
  {
    Power_core.Arch_params.label = "fixture";
    n_cells = 1000.0;
    activity = 2.0;
    avg_cap = 5e-15;
    io_cell = 2e-9;
    ld_eff = 60.0;
    area = 1.0;
  }

let fixture_problem ?(tech = T.ll) ?(params = fixture_params) chi_prime =
  {
    Power_core.Power_law.tech;
    params;
    f = Power_core.Paper_data.frequency;
    chi_prime;
  }

let test_eq13_domain () =
  (* chi' so large that chi * A >= 1: the Eq. 9 logarithm has no domain. *)
  let diags =
    Analysis.Model_rules.optimisation ~label:"fix" (fixture_problem 100.0)
  in
  check_fires "model.eq13-domain" diags;
  Alcotest.(check bool) "is error" true
    ((find_rule "model.eq13-domain" diags).severity = D.Error)

let test_sweep_bracket () =
  (* Exactly zero dynamic power (any nonzero a*C*f*Vdd^2 term buys an
     interior minimum eventually) and a tiny chi': the total is static
     power alone, strictly falling with Vdd, so the numerical optimum
     pins at the top of the sweep. *)
  let params =
    { fixture_params with Power_core.Arch_params.activity = 0.0; avg_cap = 0.0 }
  in
  let diags =
    Analysis.Model_rules.optimisation ~label:"fix"
      (fixture_problem ~params 1e-6)
  in
  check_fires "model.sweep-bracket" diags

let test_alpha_power_region () =
  (* The paper's own most-parallel Wallace design optimises below the
     strong-inversion floor on LL - a warning, not an error. *)
  let row = Power_core.Paper_data.table1_find "Wallace par4" in
  let problem =
    Power_core.Calibration.problem_of_row T.ll
      ~f:Power_core.Paper_data.frequency row
  in
  let diags =
    Analysis.Model_rules.optimisation ~label:"LL/Wallace par4" problem
  in
  check_fires "model.alpha-power-region" diags;
  Alcotest.(check bool) "is warning" true
    ((find_rule "model.alpha-power-region" diags).severity = D.Warning);
  (* chi' = 0 puts the whole locus at Vth = Vdd: zero overdrive, error. *)
  let diags = Analysis.Model_rules.optimisation ~label:"fix" (fixture_problem 0.0) in
  Alcotest.(check bool) "zero overdrive is an error" true
    (count_rule "model.alpha-power-region" diags >= 1
    && (find_rule "model.alpha-power-region" diags).severity = D.Error)

let test_finite_audit () =
  let params = { fixture_params with Power_core.Arch_params.io_cell = Float.nan } in
  let diags =
    Analysis.Model_rules.optimisation ~label:"fix"
      (fixture_problem ~params 0.15)
  in
  Alcotest.(check bool) "NaN leak caught" true
    (count_rule "model.finite" diags >= 1)

let test_newton_divergence () =
  (* A huge chi' bends the Eq. 5 locus so steeply that Newton from
     Vdd_nom overshoots into v < 0, where the fractional power is NaN. *)
  let diags =
    Analysis.Model_rules.optimisation ~label:"fix" (fixture_problem 100.0)
  in
  check_fires "model.newton-divergence" diags;
  let d = find_rule "model.newton-divergence" diags in
  Alcotest.(check bool) "reports the reason" true (contains d.message "diverged")

(* --- Engine and renderers --- *)

let sample_report () =
  let c = C.create "sample" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_gate c Cell.And2 [| a; C.tie1 c |]) "y";
  ignore (C.tie0 c);
  Analysis.Engine.of_targets
    [ { Analysis.Engine.title = "netlist sample"; diagnostics = lint c } ]

let test_engine_counts () =
  let report = sample_report () in
  Alcotest.(check int) "errors" 0 report.Analysis.Engine.errors;
  Alcotest.(check int) "warnings" 1 report.Analysis.Engine.warnings;
  Alcotest.(check int) "infos" 1 report.Analysis.Engine.infos;
  Alcotest.(check int) "exit 1 on warnings" 1
    (Analysis.Engine.exit_code report)

let test_render_text () =
  let s = Analysis.Render.text (sample_report ()) in
  Alcotest.(check bool) "has header" true (contains s "== netlist sample");
  Alcotest.(check bool) "has rule id" true (contains s "net.const-fold");
  Alcotest.(check bool) "has summary" true
    (contains s "lint: 1 target, 0 errors, 1 warning, 1 info")

let json_t =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Json.to_string j))
    Json.equal

let parse_json what s =
  match Json.parse s with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s is not JSON: %s" what msg

(* One tree behind every JSON view of a report: the printed document
   re-reads to [report_json] and the wire lint reply embeds that tree. *)
let test_render_json () =
  let r = sample_report () in
  let s = Analysis.Render.json r in
  let tree = Analysis.Render.report_json r in
  Alcotest.check json_t "json re-reads to report_json" tree
    (parse_json "json" s);
  Alcotest.(check (option json_t))
    "wire reply embeds report_json" (Some tree)
    (Json.member "report" (Serve.Engine.lint_json r));
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains s needle))
    [
      "\"targets\"";
      "\"summary\"";
      "\"rule\": \"net.const-fold\"";
      "\"severity\": \"warning\"";
      "\"exitCode\": 1";
    ]

let test_render_sarif () =
  let s = Analysis.Render.sarif ~run_id:"test-run" (sample_report ()) in
  Alcotest.(check (option json_t))
    "sarif parses" (Some (Json.Str "2.1.0"))
    (Json.member "version" (parse_json "sarif" s));
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("sarif has " ^ needle) true (contains s needle))
    [
      "\"version\": \"2.1.0\"";
      "\"id\": \"test-run\"";
      "\"id\": \"net.const-fold\"";
      "logicalLocations";
      "\"level\": \"note\"";
      "\"level\": \"warning\"";
      "ruleIndex";
      "\"helpUri\"";
      "DESIGN.md#rule-net-const-fold";
      "\"partialFingerprints\"";
      "\"optpowerDiagnostic/v1\"";
      "\"category\": \"net\"";
    ];
  (* Every registered rule is published in tool.driver.rules. *)
  List.iter
    (fun (m : Analysis.Rule.meta) ->
      Alcotest.(check bool) ("sarif declares " ^ m.id) true
        (contains s (Printf.sprintf "\"id\": %S" m.id)))
    Analysis.Rule.all

let test_merge_dedupe () =
  let d rule msg =
    D.make ~rule ~severity:D.Warning
      ~location:(D.Circuit_loc { circuit = "c"; cell = None; net = None })
      msg
  in
  let t diags = { Analysis.Engine.title = "netlist c"; diagnostics = diags } in
  (* Same target visited by two drivers, one finding repeated verbatim. *)
  let report =
    Analysis.Engine.of_targets
      [
        t [ d "net.dead-logic" "m1"; d "net.const-fold" "m2" ];
        t [ d "net.dead-logic" "m1"; d "net.dead-logic" "m3" ];
      ]
  in
  Alcotest.(check int) "merged to one target" 1
    (List.length report.Analysis.Engine.targets);
  let merged = List.hd report.Analysis.Engine.targets in
  Alcotest.(check int) "duplicate fingerprint dropped" 3
    (List.length merged.Analysis.Engine.diagnostics);
  Alcotest.(check int) "counts follow dedupe" 3 report.Analysis.Engine.warnings;
  (* Fingerprints are stable across construction and ignore the hint. *)
  let a = d "net.dead-logic" "m1" in
  let b =
    D.make ~rule:"net.dead-logic" ~severity:D.Warning
      ~location:(D.Circuit_loc { circuit = "c"; cell = None; net = None })
      ~fix_hint:"different hint" "m1"
  in
  Alcotest.(check string) "fingerprint ignores fix_hint" (D.fingerprint a)
    (D.fingerprint b)

let test_filter_rules () =
  let report = sample_report () in
  let only = Analysis.Engine.filter_rules [ "net.const-fold" ] report in
  Alcotest.(check int) "targets survive" 1
    (List.length only.Analysis.Engine.targets);
  Alcotest.(check int) "one warning kept" 1 only.Analysis.Engine.warnings;
  Alcotest.(check int) "info filtered out" 0 only.Analysis.Engine.infos;
  Alcotest.(check int) "exit recomputed" 1 (Analysis.Engine.exit_code only);
  let none = Analysis.Engine.filter_rules [ "net.undriven" ] report in
  Alcotest.(check int) "empty filter is clean" 0
    (Analysis.Engine.exit_code none)

let test_json_escaping () =
  let d =
    D.make ~rule:"net.undriven" ~severity:D.Error
      ~location:(D.Circuit_loc { circuit = "c\"q"; cell = None; net = None })
      "quote \" backslash \\ newline \n tab \t"
  in
  let report =
    Analysis.Engine.of_targets
      [ { Analysis.Engine.title = "t"; diagnostics = [ d ] } ]
  in
  let s = Analysis.Render.json report in
  Alcotest.check json_t "escaped text re-reads"
    (Analysis.Render.report_json report) (parse_json "json" s);
  Alcotest.(check bool) "escaped quote" true (contains s "c\\\"q");
  Alcotest.(check bool) "escaped newline" true (contains s "\\n");
  Alcotest.(check bool) "escaped tab" true (contains s "\\t")

let test_diagnostic_order () =
  let mk rule severity circuit =
    D.make ~rule ~severity
      ~location:(D.Circuit_loc { circuit; cell = None; net = None })
      "m"
  in
  let a = mk "net.undriven" D.Error "a" in
  let b = mk "net.dead-logic" D.Warning "a" in
  let c = mk "net.undriven" D.Error "b" in
  let sorted = List.sort D.compare [ c; b; a ] in
  Alcotest.(check bool) "same location: errors first" true
    (List.nth sorted 0 = a && List.nth sorted 1 = b && List.nth sorted 2 = c);
  (let e, w, i = D.count [ a; b; c ] in
   Alcotest.(check (triple int int int)) "count" (2, 1, 0) (e, w, i));
  Alcotest.(check int) "worst exit" 2 (D.worst_exit_code [ b; a ]);
  Alcotest.(check int) "warning exit" 1 (D.worst_exit_code [ b ]);
  Alcotest.(check int) "clean exit" 0 (D.worst_exit_code [])

let () =
  Alcotest.run "analysis"
    [
      ( "registry",
        [ Alcotest.test_case "complete" `Quick test_registry_complete ] );
      ( "netlist-rules",
        [
          Alcotest.test_case "clean circuit" `Quick test_clean_circuit;
          Alcotest.test_case "undriven" `Quick test_undriven;
          Alcotest.test_case "comb-cycle" `Quick test_comb_cycle;
          Alcotest.test_case "dangling+dead" `Quick test_dangling_and_dead;
          Alcotest.test_case "tie dangling is info" `Quick
            test_dangling_tie_is_info;
          Alcotest.test_case "const-fold" `Quick test_const_fold;
          Alcotest.test_case "duplicate-cell" `Quick test_duplicate_cell;
          Alcotest.test_case "fanout-budget" `Quick test_fanout_budget;
          Alcotest.test_case "unused-input" `Quick test_unused_input;
          Alcotest.test_case "unbalanced-pipeline" `Quick
            test_unbalanced_pipeline;
        ] );
      ( "model-rules",
        [
          Alcotest.test_case "tech-range" `Quick test_tech_range;
          Alcotest.test_case "alpha-range" `Quick test_alpha_range;
          Alcotest.test_case "slope-range" `Quick test_slope_range;
          Alcotest.test_case "calibration-range" `Quick test_calibration_range;
          Alcotest.test_case "eq13-domain" `Quick test_eq13_domain;
          Alcotest.test_case "sweep-bracket" `Quick test_sweep_bracket;
          Alcotest.test_case "alpha-power-region" `Quick
            test_alpha_power_region;
          Alcotest.test_case "finite audit" `Quick test_finite_audit;
          Alcotest.test_case "newton-divergence" `Quick test_newton_divergence;
        ] );
      ( "engine+render",
        [
          Alcotest.test_case "counts and exit code" `Quick test_engine_counts;
          Alcotest.test_case "text" `Quick test_render_text;
          Alcotest.test_case "json" `Quick test_render_json;
          Alcotest.test_case "sarif" `Quick test_render_sarif;
          Alcotest.test_case "merge+dedupe" `Quick test_merge_dedupe;
          Alcotest.test_case "filter rules" `Quick test_filter_rules;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "diagnostic order" `Quick test_diagnostic_order;
        ] );
    ]
