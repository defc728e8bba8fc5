module N = Power_core.Numerical_opt

let problem_of_label tech label =
  Power_core.Calibration.problem_of_row tech
    ~f:Power_core.Paper_data.frequency
    (Power_core.Paper_data.table1_find label)

let optimum ~tech arch = N.optimum (problem_of_label tech arch)

let sweep ?pool ~tech ~samples ~vdd_lo ~vdd_hi arch =
  N.sweep_vdd ?pool ~samples ~vdd_lo ~vdd_hi (problem_of_label tech arch)

(* Sorting is stable and the solve order is the catalog order, so ties
   (there are none today, but the contract matters) stay deterministic. *)
let rank ?pool ~tech archs =
  let points =
    N.optima_continued ?pool ~problem_of:(problem_of_label tech) archs
  in
  List.stable_sort
    (fun (_, (a : N.point)) (_, (b : N.point)) ->
      Float.compare a.total b.total)
    (List.combine archs points)

let lint ?pool ?only () =
  let report = Analysis.Engine.run ?pool () in
  match only with
  | None -> report
  | Some ids -> Analysis.Engine.filter_rules ids report

(* Wire encodings. *)

let point_json (p : N.point) =
  Json.Obj
    [
      ("vdd", Json.Num p.vdd);
      ("vth", Json.Num p.vth);
      ("pdyn", Json.Num p.dynamic);
      ("pstat", Json.Num p.static);
      ("ptot", Json.Num p.total);
    ]

let optimum_json ~tech ~arch point =
  Json.Obj
    [
      ("method", Json.Str "optimum");
      ("tech", Json.Str (Device.Technology.name tech));
      ("arch", Json.Str arch);
      ("optimum", point_json point);
    ]

let sweep_json ~tech ~arch points =
  Json.Obj
    [
      ("method", Json.Str "sweep");
      ("tech", Json.Str (Device.Technology.name tech));
      ("arch", Json.Str arch);
      ("points", Json.Arr (List.map point_json points));
    ]

let rank_json ~tech ranked =
  Json.Obj
    [
      ("method", Json.Str "rank");
      ("tech", Json.Str (Device.Technology.name tech));
      ( "ranking",
        Json.Arr
          (List.map
             (fun (arch, (p : N.point)) ->
               Json.Obj
                 [
                   ("arch", Json.Str arch);
                   ("vdd", Json.Num p.vdd);
                   ("vth", Json.Num p.vth);
                   ("ptot", Json.Num p.total);
                 ])
             ranked) );
    ]

let lint_json report =
  Json.Obj
    [
      ("method", Json.Str "lint");
      ("exit_code", Json.Num (float_of_int (Analysis.Engine.exit_code report)));
      ("report", Analysis.Render.report_json report);
    ]

let certify_json rows =
  Json.Obj
    [
      ("method", Json.Str "certify");
      ( "violations",
        Json.Num (float_of_int (Report.Certify_report.violations rows)) );
      ( "rows",
        Json.Arr
          (List.map
             (fun (r : Report.Certify_report.row) ->
               let cert = r.cert in
               Json.Obj
                 [
                   ("label", Json.Str r.label);
                   ("ok", Json.Bool r.ok);
                   ("ptot_lo", Json.Num cert.ptot.lo);
                   ("ptot_hi", Json.Num cert.ptot.hi);
                   ("vdd_lo", Json.Num cert.vdd_bracket.lo);
                   ("vdd_hi", Json.Num cert.vdd_bracket.hi);
                   ("optimum", point_json r.optimum);
                 ])
             rows) );
    ]

let explore_json (r : Power_core.Explorer.result) =
  let entry_json (e : Power_core.Explorer.entry) =
    Json.Obj
      [
        ("design", Json.Str e.design);
        ("family", Json.Str (Power_core.Explorer.family_name e.family));
        ("radix", Json.Num (float_of_int e.radix));
        ( "signed",
          Json.Bool (e.signedness = Multipliers.Booth.Signed) );
        ("stages", Json.Num (float_of_int e.stages));
        ("copies", Json.Num (float_of_int e.copies));
        ("tech", Json.Str e.tech);
        ("ptot", Json.Num e.power);
        ("vdd", Json.Num e.vdd);
        ("cert_lo", Json.Num e.cert_lo);
        ("latency", Json.Num e.latency);
        ("area", Json.Num e.area);
      ]
  in
  let slice_json (s : Power_core.Explorer.slice) =
    Json.Obj
      [
        ("f", Json.Num s.f);
        ("front", Json.Arr (List.map entry_json s.front));
      ]
  in
  let t = r.totals in
  Json.Obj
    [
      ("method", Json.Str "explore");
      ("pruned", Json.Bool r.pruned);
      ( "totals",
        Json.Obj
          [
            ("enumerated", Json.Num (float_of_int t.enumerated));
            ("filtered", Json.Num (float_of_int t.filtered));
            ("bound_pruned", Json.Num (float_of_int t.bound_pruned));
            ("cert_pruned", Json.Num (float_of_int t.cert_pruned));
            ("store_hits", Json.Num (float_of_int t.store_hits));
            ("exact_solves", Json.Num (float_of_int t.exact_solves));
            ("front_size", Json.Num (float_of_int t.front_size));
          ] );
      ("slices", Json.Arr (List.map slice_json r.slices));
    ]

let store_stats_json store =
  Json.Obj
    (( "method", Json.Str "store_stats" )
     ::
     (match store with
     | None -> [ ("enabled", Json.Bool false) ]
     | Some st ->
       let s = Store.stats st in
       [
         ("enabled", Json.Bool true);
         ("path", Json.Str s.path);
         ( "mode",
           Json.Str
             (match s.mode with
             | Store.Read_write -> "read-write"
             | Store.Read_only -> "read-only") );
         ("fingerprint", Json.Str (Store.fingerprint st));
         ("entries", Json.Num (float_of_int s.entries));
         ("hits", Json.Num (float_of_int s.hits));
         ("misses", Json.Num (float_of_int s.misses));
         ("puts", Json.Num (float_of_int s.puts));
         ("invalidated", Json.Bool s.invalidated);
         ("recovered", Json.Num (float_of_int s.recovered));
         ("log_bytes", Json.Num (float_of_int s.log_bytes));
         ("index_bytes", Json.Num (float_of_int s.index_bytes));
       ]))

let run_call ?pool ?store (call : Protocol.call) =
  match call with
  | Protocol.Optimum { tech; arch } ->
    optimum_json ~tech ~arch (optimum ~tech arch)
  | Protocol.Sweep { tech; arch; samples; vdd_lo; vdd_hi } ->
    sweep_json ~tech ~arch (sweep ?pool ~tech ~samples ~vdd_lo ~vdd_hi arch)
  | Protocol.Rank { tech; archs } -> rank_json ~tech (rank ?pool ~tech archs)
  | Protocol.Lint { only } -> lint_json (lint ?pool ?only ())
  | Protocol.Certify { flavors } ->
    certify_json (Report.Certify_report.rows ?pool ~flavors ())
  | Protocol.Explore { axes; prune; max_latency; max_area } ->
    explore_json
      (Power_core.Explorer.explore ?pool ~prune ?store ?max_latency ?max_area
         axes)
  | Protocol.Store_stats -> store_stats_json store
