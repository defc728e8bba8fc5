module A = Power_core.Ablation

let render_dibl rows =
  let columns =
    List.map Table.column [ "eta"; "Vth_eff [V]"; "Vth0 required [V]"; "Ptot [uW]" ]
  in
  let row (r : A.dibl_row) =
    [
      Printf.sprintf "%.2f" r.eta;
      Table.fmt_f r.vth_effective;
      Table.fmt_f r.vth0_required;
      Table.fmt_uw r.ptot;
    ]
  in
  "DIBL ablation - the optimum is eta-invariant in effective-threshold \
   space;\nonly the zero-bias threshold the device must provide moves \
   (Eq. 3, and the\npaper's remark that eta drops out of Eq. 13):\n"
  ^ Table.render ~columns ~rows:(List.map row rows)

let render_glitch rows =
  let columns =
    Table.column ~align:Table.Left "Architecture"
    :: List.map Table.column
         [ "a (full)"; "a (no glitch)"; "Ptot [uW]"; "Ptot quiet [uW]"; "glitch %" ]
  in
  let row (r : A.glitch_row) =
    [
      r.label;
      Printf.sprintf "%.4f" r.activity_full;
      Printf.sprintf "%.4f" r.activity_no_glitch;
      Table.fmt_uw r.ptot_full;
      Table.fmt_uw r.ptot_no_glitch;
      Printf.sprintf "%.1f" r.glitch_power_pct;
    ]
  in
  "Glitch ablation - optimal power with glitch transitions removed from \
   the activity:\n"
  ^ Table.render ~columns ~rows:(List.map row rows)

let render_lin_range rows =
  let columns = List.map Table.column [ "fit range [V]"; "max |Eq13 err| %" ] in
  let row (r : A.lin_range_row) =
    [ Printf.sprintf "0.30 - %.2f" r.hi; Printf.sprintf "%.2f" r.max_abs_err_pct ]
  in
  "Linearisation-range ablation - worst Eq. 13 error over Table 1 vs the \
   Eq. 7 fitting range:\n"
  ^ Table.render ~columns ~rows:(List.map row rows)

let render_frequency points =
  let tech_names =
    match points with
    | [] -> []
    | p :: _ -> List.map fst p.A.per_tech
  in
  let columns =
    Table.column "f [MHz]"
    :: List.map (fun name -> Table.column (name ^ " [uW]")) tech_names
  in
  let row (p : A.freq_point) =
    Printf.sprintf "%.2f" (p.f /. 1e6)
    :: List.map
         (fun (_, total) ->
           match total with
           | Some w -> Table.fmt_uw w
           | None -> "infeasible")
         p.per_tech
  in
  "Frequency sweep - optimal total power per technology flavor (Section 5 \
   extended along the throughput axis):\n"
  ^ Table.render ~columns ~rows:(List.map row points)

let render_width rows =
  let columns =
    List.map Table.column [ "bits"; "RCA Ptot [uW]"; "Wallace Ptot [uW]"; "ratio" ]
  in
  let row (r : A.width_row) =
    [
      string_of_int r.bits;
      Table.fmt_uw r.rca_ptot;
      Table.fmt_uw r.wallace_ptot;
      Printf.sprintf "%.2f" (r.rca_ptot /. r.wallace_ptot);
    ]
  in
  "Width scaling (from scratch) - optimal power of the two flat cores vs \
   operand width:\n"
  ^ Table.render ~columns ~rows:(List.map row rows)

let render_variation (r : Power_core.Variation.result) =
  let columns =
    List.map Table.column
      [ "quantity"; "nominal"; "mean"; "stddev"; "min"; "max"; "p95" ]
  in
  let ptot_row =
    [
      "Ptot [uW]";
      Table.fmt_uw r.nominal.total;
      Table.fmt_uw r.ptot_stats.mean;
      Table.fmt_uw r.ptot_stats.stddev;
      Table.fmt_uw r.ptot_stats.min_value;
      Table.fmt_uw r.ptot_stats.max_value;
      Table.fmt_uw r.ptot_p95;
    ]
  in
  let vdd_row =
    [
      "Vdd* [V]";
      Table.fmt_f r.nominal.vdd;
      Table.fmt_f r.vdd_stats.mean;
      Table.fmt_f r.vdd_stats.stddev;
      Table.fmt_f r.vdd_stats.min_value;
      Table.fmt_f r.vdd_stats.max_value;
      "-";
    ]
  in
  Printf.sprintf
    "Process-variation Monte Carlo (%d dies) over the re-optimised working \
     point.\nVth0 shifts are absorbed by the adjustable working point \
     (Section 1's premise);\nleakage / capacitance / speed / alpha spread \
     is not:\n"
    r.ptot_stats.count
  ^ Table.render ~columns ~rows:[ ptot_row; vdd_row ]

let render_yield (r : Power_core.Variation.yield_result) =
  let columns =
    List.map Table.column
      [ "quantity"; "nominal"; "mean"; "stddev"; "q01"; "q50"; "q95"; "q99" ]
  in
  let stat_row label nominal fmt (s : Power_core.Variation.yield_stats) =
    [
      label;
      fmt nominal;
      fmt s.summary.mean;
      fmt s.summary.stddev;
      fmt s.q01;
      fmt s.q50;
      fmt s.q95;
      fmt s.q99;
    ]
  in
  let stats =
    Table.render ~columns
      ~rows:
        [
          stat_row "Ptot [uW]" r.nominal.total Table.fmt_uw r.ptot;
          stat_row "Vdd* [V]" r.nominal.vdd Table.fmt_f r.vdd;
        ]
  in
  let curve_columns =
    List.map Table.column [ "spec [uW]"; "vs nominal"; "yield %"; "" ]
  in
  let curve_row (spec, y) =
    let bar = String.make (int_of_float (Float.round (y *. 30.0))) '#' in
    [
      Table.fmt_uw spec;
      Printf.sprintf "%.2fx" (spec /. r.nominal.total);
      Printf.sprintf "%6.2f" (100.0 *. y);
      bar;
    ]
  in
  let sampler_name =
    match r.sampler with `Pseudo -> "pseudo-random" | `Sobol -> "Sobol QMC"
  in
  Printf.sprintf
    "Parametric yield - %d dies re-optimised under process variation \
     (%s sampler).\nEvery die re-tunes (Vdd, Vth) to its own optimum; the \
     distribution below is\nof those per-die optima, streamed through \
     O(1)-memory sketches:\n"
    r.dies sampler_name
  ^ stats
  ^ "\nYield vs power budget (fraction of dies whose optimal Ptot meets the \
     spec):\n"
  ^ Table.render ~columns:curve_columns
      ~rows:(List.map curve_row (Array.to_list r.yield_curve))

let render_energy points (mep : Power_core.Energy.mep) =
  let plot =
    Ascii_plot.render ~height:16 ~log_y:false ~x_label:"log10 f [Hz]"
      ~y_label:"pJ / operation"
      [
        Ascii_plot.series ~label:"energy per multiply"
          (List.map
             (fun (p : Power_core.Energy.sweep_point) ->
               (Float.log10 p.f, p.energy *. 1e12))
             points);
      ]
  in
  let columns =
    List.map Table.column [ "f [MHz]"; "E [pJ/op]"; "Ptot [uW]"; "Vdd"; "Vth" ]
  in
  let row (p : Power_core.Energy.sweep_point) =
    [
      Printf.sprintf "%.2f" (p.f /. 1e6);
      Printf.sprintf "%.2f" (p.energy *. 1e12);
      Table.fmt_uw p.ptot;
      Table.fmt_f p.vdd;
      Table.fmt_f p.vth;
    ]
  in
  "Energy per operation vs throughput (Vdd/Vth re-optimised at every \
   point):\n" ^ plot
  ^ Printf.sprintf
      "\nMinimum energy point: %.2f pJ/op at %.2f MHz (Vdd %.3f V).\n\n"
      (mep.energy_mep *. 1e12) (mep.f_mep /. 1e6) mep.vdd_mep
  ^ Table.render ~columns ~rows:(List.map row points)

let render_thermal rows =
  let columns =
    List.map Table.column
      [ "R_th [K/W]"; "T_die [K]"; "Ptot [uW]"; "iterations" ]
  in
  let row (r_th, (e : Device.Thermal.equilibrium)) =
    [
      Printf.sprintf "%.0f" r_th;
      Printf.sprintf "%.2f" e.temperature;
      Table.fmt_uw e.ptot;
      string_of_int e.iterations;
    ]
  in
  "Self-heating fixpoint - die temperature and re-optimised power vs \
   package thermal resistance:\n"
  ^ Table.render ~columns ~rows:(List.map row rows)

let render_extensions ?(cycles = 120) tech ~f =
  let labels =
    [ "Wallace"; "Dadda"; "Booth r4"; "Wallace parallel"; "Dadda parallel";
      "Booth r4 parallel" ]
  in
  let columns =
    Table.column ~align:Table.Left "Architecture"
    :: List.map Table.column
         [ "N"; "a"; "LDeff"; "Vdd*"; "Vth*"; "Ptot [uW]" ]
  in
  let rows =
    List.map
      (fun label ->
        let row = Power_core.Scratch_pipeline.run_label ~cycles tech ~f label in
        [
          label;
          Printf.sprintf "%.0f" row.params.n_cells;
          Printf.sprintf "%.4f" row.params.activity;
          Printf.sprintf "%.1f" row.params.ld_eff;
          Table.fmt_f row.numerical.vdd;
          Table.fmt_f row.numerical.vth;
          Table.fmt_uw row.numerical.total;
        ])
      labels
  in
  "Extension architectures (beyond the paper's set), from scratch:\n"
  ^ Table.render ~columns ~rows
