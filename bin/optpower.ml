(* optpower - command-line front end reproducing every table and figure of
   Schuster et al., "Architectural and Technology Influence on the Optimal
   Total Power Consumption" (DATE 2006). *)

open Cmdliner

let print = print_string

let csv_path_arg =
  let doc = "Also write the raw data to $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

(* Numeric flags with a domain: a value outside it is a usage error (exit
   124) whose message names the flag, before any work starts. *)
let int_at_least ?(even = false) lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && ((not even) || n mod 2 = 0) -> Ok n
    | Some _ | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected %sN >= %d" s
                (if even then "an even " else "")
                lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1

(* Operand width of the commands that build the Booth core, which needs
   an even width of at least 4. *)
let booth_bits = int_at_least ~even:true 4

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | Some _ | None ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected a finite X > 0" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let jobs_arg =
  let doc =
    "Worker domains for parallel maps (default: $(b,OPTPOWER_JOBS) or the \
     machine's recommended domain count). Results are bitwise-identical at \
     any value; 1 forces sequential execution."
  in
  Arg.(value & opt (some positive_int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let set_jobs jobs = Option.iter Parallel.Pool.set_default_jobs jobs

(* Observability flags shared by the subcommands: --trace FILE records the
   run and writes a Chrome trace_event JSON, --metrics prints the span /
   counter / histogram report after the normal output. *)

let trace_path_arg =
  let doc =
    "Record the run and write a Chrome trace_event JSON to $(docv) \
     (load it in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Record the run and print the observability report (span profile tree, \
     counters, histograms) after the normal output."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let obs_arg = Term.(const (fun t m -> (t, m)) $ trace_path_arg $ metrics_arg)

(* Warm-store flags shared by explore and serve: --store overrides the
   directory, --no-store runs cold. Open failures degrade to cold. *)

let store_path_arg =
  let doc =
    "Warm-store directory (default: $(b,OPTPOWER_STORE) or \
     $(b,.optpower-store)). Cross-run cache of characterisations, \
     certified bounds and exact optima; replays are bitwise-identical to \
     cold solves."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let no_store_arg =
  let doc = "Run cold: no warm store is opened or written." in
  Arg.(value & flag & info [ "no-store" ] ~doc)

let open_warm ?readonly ~no_store path =
  if no_store then None else Power_core.Warm.open_store ?readonly ?path ()

let with_obs (trace, metrics) f =
  let active = trace <> None || metrics in
  if active then begin
    Obs.set_enabled true;
    Obs.reset ()
  end;
  Fun.protect f ~finally:(fun () ->
      if active then begin
        if metrics then begin
          print_newline ();
          print (Obs.Report.profile ())
        end;
        Option.iter
          (fun path ->
            Obs.Report.write_chrome_trace ~path ();
            Printf.printf "Chrome trace written to %s\n" path)
          trace
      end)

(* The request grammar. The subcommands that ask the service's questions
   (optimum, sweep, rank, lint, certify, explore) and [client] share it:
   each wire parameter is declared once below, as a term yielding its
   Serve.Protocol name and JSON value when the flag is given, and
   Serve.Protocol.call_of_params validates the lot. The CLI therefore
   accepts exactly the requests the service accepts; a rejected one is a
   usage error (exit 124) with Protocol's message. *)

module J = Json

let wire_opt ?long key cv to_json ~docv ~doc =
  let long = Option.value long ~default:key in
  let arg = Arg.(value & opt (some cv) None & info [ long ] ~docv ~doc) in
  Term.(const (Option.map (fun v -> (key, to_json v))) $ arg)

let wire_flag ~long key json ~doc =
  let arg = Arg.(value & flag & info [ long ] ~doc) in
  Term.(const (fun set -> if set then Some (key, json) else None) $ arg)

let str s = J.Str s
let num v = J.Num v
let int_num n = J.Num (float_of_int n)
let arr f l = J.Arr (List.map f l)

let arch_param =
  wire_opt "arch" Arg.string str ~docv:"LABEL"
    ~doc:"Table 1 architecture label."

let tech_param =
  wire_opt "tech" Arg.string str ~docv:"FLAVOR"
    ~doc:
      "Technology flavor: $(b,ULL), $(b,LL) or $(b,HS) (default $(b,LL)); \
       certify and explore also take $(b,all), their default."

let samples_param =
  wire_opt "samples" Arg.int int_num ~docv:"N"
    ~doc:"Sweep sample count (default 25)."

let archs_param =
  wire_opt "archs" Arg.(list string) (arr str) ~docv:"LABEL,..."
    ~doc:"Architectures to rank (default: the full Table 1 catalog)."

let only_param =
  wire_opt "only" Arg.(list string) (arr str) ~docv:"RULE-ID,..."
    ~doc:
      "Keep only lint findings of the given rule ids (e.g. \
       $(b,cert.solver-in-enclosure,model.finite)); the summary and exit \
       code reflect the filtered report."

let bits_param =
  wire_opt "bits" Arg.int int_num ~docv:"W"
    ~doc:"Explore operand width (even, 4 to 16; default 8)."

let family_param =
  wire_opt ~long:"family" "families" Arg.(list string) (arr str) ~docv:"F,..."
    ~doc:
      "Explore substrate families: $(b,booth), $(b,dadda) and/or \
       $(b,wallace) (default: all three)."

let radix_param =
  wire_opt ~long:"radix" "radices" Arg.(list int) (arr int_num) ~docv:"R,..."
    ~doc:"Explore Booth radix axis (entries from {2, 4, 8})."

let stages_param =
  wire_opt "stages" Arg.(list int) (arr int_num) ~docv:"N,..."
    ~doc:"Explore pipeline-depth axis (default 1,2,3)."

let copies_param =
  wire_opt "copies" Arg.(list int) (arr int_num) ~docv:"K,..."
    ~doc:"Explore parallelisation axis (default 1,2,4)."

let signed_param =
  wire_flag ~long:"signed" "signed" (J.Bool true)
    ~doc:"Explore signed (Booth-recoded) operands."

let fmult_param =
  wire_opt ~long:"fmult" "fmults" Arg.(list float) (arr num) ~docv:"X,..."
    ~doc:
      "Explore frequency slices, as multiples of the paper's 31.25 MHz \
       (default 0.5,1,2,4)."

let no_prune_param =
  wire_flag ~long:"no-prune" "prune" (J.Bool false)
    ~doc:"Explore exhaustively: solve every candidate (the differential \
          oracle)."

let max_latency_param =
  wire_opt ~long:"max-latency" "max_latency" Arg.float num ~docv:"D"
    ~doc:"Explore only candidates with effective logic depth <= $(docv) (> 0)."

let max_area_param =
  wire_opt ~long:"max-area" "max_area" Arg.float num ~docv:"CELLS"
    ~doc:"Explore only candidates with at most $(docv) cells (> 0)."

let params_term params =
  List.fold_right
    (fun p rest -> Term.(const (fun p l -> Option.to_list p @ l) $ p $ rest))
    params (Term.const [])

(* [defaults] stand in for the parameters the command line leaves out. *)
let call_term ?(defaults = []) meth params =
  let parse given =
    let absent (key, _) = not (List.mem_assoc key given) in
    let params = J.Obj (given @ List.filter absent defaults) in
    match Serve.Protocol.call_of_params meth params with
    | Ok call -> `Ok call
    | Error (_, msg) -> `Error (true, msg)
  in
  Term.(ret (const parse $ params_term params))

let default_arch = [ ("arch", J.Str "RCA") ]

let json_flag =
  let doc = "Print the reply as wire JSON instead of a table." in
  Arg.(value & flag & info [ "json" ] ~doc)

let print_reply call =
  print (J.to_string (Serve.Engine.run_call call) ^ "\n")

(* The study subcommands pick an architecture from a fixed label set: an
   enum, so an unknown label is a usage error that lists the valid ones. *)
let label_arg ~doc labels =
  Arg.(
    value
    & opt (enum (List.map (fun l -> (l, l)) labels)) "Wallace"
    & info [ "arch" ] ~docv:"LABEL" ~doc)

let table1_label_arg =
  label_arg ~doc:"Table 1 label."
    (List.map
       (fun (r : Power_core.Paper_data.table1_row) -> r.label)
       Power_core.Paper_data.table1)

let catalog_label_arg =
  label_arg ~doc:"Catalog label."
    (List.map
       (fun (e : Multipliers.Catalog.entry) -> e.label)
       (Multipliers.Catalog.entries @ Multipliers.Catalog.extensions))

(* The calibrated problem of a Table 1 row on the LL flavor at the
   paper's frequency, as the studies below use it. *)
let ll_problem = Serve.Engine.problem_of_label Device.Technology.ll

let table1_cmd =
  let run jobs obs csv =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    let rows = Report.Experiments.table1 () in
    print (Report.Experiments.render_table1 rows);
    Option.iter
      (fun path ->
        let header =
          [
            "label"; "vdd"; "vth"; "pdyn_w"; "pstat_w"; "ptot_w"; "eq13_w";
            "err_pct"; "paper_ptot_w"; "paper_err_pct";
          ]
        in
        let data =
          List.map
            (fun (r : Report.Experiments.table1_row) ->
              [
                r.label;
                string_of_float r.vdd;
                string_of_float r.vth;
                string_of_float r.pdyn;
                string_of_float r.pstat;
                string_of_float r.ptot;
                string_of_float r.eq13;
                string_of_float r.err_pct;
                string_of_float r.paper.ptot;
                string_of_float r.paper.err_pct;
              ])
            rows
        in
        Report.Csv.write_file ~path ~header ~rows:data;
        Printf.printf "\nCSV written to %s\n" path)
      csv
  in
  let doc = "Reproduce Table 1 (13 multipliers at their optimal point, LL)." in
  Cmd.v (Cmd.info "table1" ~doc)
    Term.(const run $ jobs_arg $ obs_arg $ csv_path_arg)

let wallace_cmd name which doc =
  let run jobs obs =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    print (Report.Experiments.render_wallace (Report.Experiments.table_wallace which))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ jobs_arg $ obs_arg)

let table2_cmd =
  let run () = print (Report.Experiments.render_table2 (Report.Experiments.table2 ())) in
  let doc =
    "Re-characterise the three technology flavors by ring-oscillator \
     simulation (Table 2 check)."
  in
  Cmd.v (Cmd.info "table2" ~doc) Term.(const run $ const ())

let fig1_cmd =
  let activities =
    let doc = "Comma-separated activity values for the curves." in
    Arg.(
      value & opt (some (list positive_float)) None & info [ "activities" ] ~doc)
  in
  let run jobs obs activities =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    print (Report.Experiments.render_figure1 (Report.Experiments.figure1 ?activities ()))
  in
  let doc = "Reproduce Figure 1 (Ptot vs Vdd at several activities)." in
  Cmd.v (Cmd.info "fig1" ~doc) Term.(const run $ jobs_arg $ obs_arg $ activities)

let fig2_cmd =
  let alpha =
    let doc = "Alpha-power exponent for the linearisation plot." in
    Arg.(value & opt float 1.5 & info [ "alpha" ] ~doc)
  in
  let run alpha =
    print (Report.Experiments.render_figure2 (Report.Experiments.figure2 ~alpha ()))
  in
  let doc = "Reproduce Figure 2 (Vdd^(1/alpha) linearisation)." in
  Cmd.v (Cmd.info "fig2" ~doc) Term.(const run $ alpha)

let sketch_cmd =
  let bits =
    Arg.(value & opt (int_at_least 2) 8 & info [ "bits" ] ~doc:"Operand width.")
  in
  let stages =
    Arg.(value & opt positive_int 2 & info [ "stages" ] ~doc:"Pipeline stages.")
  in
  let run bits stages =
    print
      (Report.Experiments.pipeline_sketch ~bits ~stages
         ~cut:Multipliers.Rca.Horizontal);
    print_newline ();
    print
      (Report.Experiments.pipeline_sketch ~bits ~stages
         ~cut:Multipliers.Rca.Diagonal)
  in
  let doc = "Render the pipeline register placements of Figures 3 and 4." in
  Cmd.v (Cmd.info "sketch" ~doc) Term.(const run $ bits $ stages)

let scratch_cmd =
  let cycles =
    Arg.(value & opt int 160 & info [ "cycles" ] ~doc:"Simulated data cycles.")
  in
  let run jobs obs cycles =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    print (Report.Experiments.render_scratch (Report.Experiments.scratch ~cycles ()))
  in
  let doc =
    "From-scratch run: generate all thirteen netlists, simulate activity, \
     extract parameters and optimise (no published numbers used)."
  in
  Cmd.v (Cmd.info "scratch" ~doc) Term.(const run $ jobs_arg $ obs_arg $ cycles)

let sweep_cmd =
  let run obs call =
    with_obs obs @@ fun () ->
    match call with
    | Serve.Protocol.Sweep { tech; arch; samples; vdd_lo; vdd_hi } ->
      let points = Serve.Engine.sweep ~tech ~samples ~vdd_lo ~vdd_hi arch in
      Printf.printf "%-8s %-8s %-10s %-10s %-10s\n" "Vdd" "Vth" "Pdyn[uW]"
        "Pstat[uW]" "Ptot[uW]";
      List.iter
        (fun (p : Power_core.Numerical_opt.point) ->
          Printf.printf "%-8.3f %-8.3f %-10.2f %-10.2f %-10.2f\n" p.vdd p.vth
            (p.dynamic *. 1e6) (p.static *. 1e6) (p.total *. 1e6))
        points
    | _ -> assert false
  in
  let doc = "Print the Ptot(Vdd) locus for one architecture." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ obs_arg
      $ call_term "sweep" ~defaults:default_arch
          [ arch_param; tech_param; samples_param ])

let ablate_cmd =
  let which =
    let doc = "Which ablation: dibl, glitch or linrange." in
    Arg.(
      required
      & pos 0 (some (enum [ ("dibl", `Dibl); ("glitch", `Glitch); ("linrange", `Linrange) ])) None
      & info [] ~docv:"STUDY" ~doc)
  in
  let run which =
    match which with
    | `Dibl ->
      print
        (Report.Studies.render_dibl
           (Power_core.Ablation.dibl_sweep (ll_problem "RCA")))
    | `Glitch ->
      let labels =
        [ "RCA"; "RCA hor.pipe2"; "RCA diagpipe2"; "RCA hor.pipe4";
          "RCA diagpipe4"; "Wallace" ]
      in
      print
        (Report.Studies.render_glitch
           (Power_core.Ablation.glitch_ablation Device.Technology.ll
              ~f:Power_core.Paper_data.frequency ~labels))
    | `Linrange ->
      print
        (Report.Studies.render_lin_range
           (Power_core.Ablation.linearization_range_sweep ()))
  in
  let doc = "Ablation studies (DIBL invariance, glitch power, Eq. 7 range)." in
  Cmd.v (Cmd.info "ablate" ~doc) Term.(const run $ which)

let freq_cmd =
  let run label =
    let row = Power_core.Paper_data.table1_find label in
    let params =
      Power_core.Calibration.params_of_row Device.Technology.ll
        ~f:Power_core.Paper_data.frequency row
    in
    print
      (Report.Studies.render_frequency
         (Power_core.Ablation.frequency_sweep params));
    match
      Power_core.Tech_compare.crossover_frequency Device.Technology.hs
        Device.Technology.ll params
    with
    | Some fx -> Printf.printf "\nHS/LL crossover: %.0f MHz\n" (fx /. 1e6)
    | None -> print_endline "\nNo HS/LL crossover between 1 MHz and 1 GHz."
  in
  let doc = "Optimal power vs throughput per technology flavor." in
  Cmd.v (Cmd.info "freq" ~doc) Term.(const run $ table1_label_arg)

let widths_cmd =
  let run () =
    print
      (Report.Studies.render_width
         (Power_core.Ablation.width_scaling Device.Technology.ll
            ~f:Power_core.Paper_data.frequency))
  in
  let doc = "From-scratch optimal power vs operand width." in
  Cmd.v (Cmd.info "widths" ~doc) Term.(const run $ const ())

let extensions_cmd =
  let run () =
    print
      (Report.Studies.render_extensions Device.Technology.ll
         ~f:Power_core.Paper_data.frequency)
  in
  let doc = "Score the extension architectures (Booth, Dadda, parallels)." in
  Cmd.v (Cmd.info "extensions" ~doc) Term.(const run $ const ())

let prove_cmd =
  let bits =
    Arg.(
      value & opt booth_bits 8
      & info [ "bits" ] ~doc:"Operand width (BDDs of multipliers grow fast).")
  in
  let run bits =
    let build name core =
      let c = Netlist.Circuit.create name in
      let a = Netlist.Circuit.add_input_bus c "a" bits in
      let b = Netlist.Circuit.add_input_bus c "b" bits in
      let p = core c ~a ~b in
      Netlist.Circuit.mark_output_bus c p "p";
      c
    in
    let reference = build "rca" Multipliers.Rca.core in
    Printf.printf
      "BDD equivalence proofs against the %d-bit RCA core (shared \
       hash-consed manager):\n" bits;
    List.iter
      (fun (name, core) ->
        match Netlist.Bdd.check_equivalence reference (build name core) with
        | Netlist.Bdd.Equivalent ->
          Printf.printf "  %-8s EQUIVALENT (proven for all 2^%d input \
                         pairs)\n%!" name (2 * bits)
        | Netlist.Bdd.Inequivalent o ->
          Printf.printf "  %-8s DIFFERS at output %s\n%!" name o
        | Netlist.Bdd.Aborted ->
          Printf.printf "  %-8s ABORTED - node budget exhausted (try fewer \
                         bits)\n%!" name)
      [
        ("wallace", Multipliers.Wallace.core);
        ("dadda", Multipliers.Dadda.core);
        ("booth", Multipliers.Booth.core);
      ]
  in
  let doc =
    "Formally prove the multiplier cores equivalent (BDD-based \
     combinational equivalence checking)."
  in
  Cmd.v (Cmd.info "prove" ~doc) Term.(const run $ bits)

let faults_cmd =
  let bits =
    Arg.(value & opt booth_bits 8 & info [ "bits" ] ~doc:"Operand width.")
  in
  let vectors =
    Arg.(
      value & opt positive_int 32 & info [ "vectors" ] ~doc:"Random test vectors.")
  in
  let run bits vectors =
    let build core =
      let c = Netlist.Circuit.create "dut" in
      let a = Netlist.Circuit.add_input_bus c "a" bits in
      let b = Netlist.Circuit.add_input_bus c "b" bits in
      let p = core c ~a ~b in
      Netlist.Circuit.mark_output_bus c p "p";
      (c, p)
    in
    Printf.printf
      "Single-stuck-at coverage of %d random vectors (%d-bit cores):\n" vectors
      bits;
    List.iter
      (fun (name, core) ->
        let c, p = build core in
        let rng = Numerics.Rng.create 17 in
        let vecs = Logicsim.Faults.random_vectors ~rng ~circuit:c ~count:vectors in
        let cov =
          Logicsim.Faults.coverage c ~vectors:vecs ~outputs:(Array.to_list p)
        in
        Printf.printf "  %-8s %5.1f%% of %d faults (%d undetected)\n%!" name
          cov.coverage_pct cov.total
          (List.length cov.undetected))
      [
        ("RCA", Multipliers.Rca.core);
        ("Wallace", Multipliers.Wallace.core);
        ("Dadda", Multipliers.Dadda.core);
        ("Booth", Multipliers.Booth.core);
      ]
  in
  let doc = "Stuck-at fault coverage of random vectors on the bare cores." in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const run $ bits $ vectors)

let explore_cmd =
  let run jobs obs store_path no_store call =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    match call with
    | Serve.Protocol.Explore { axes; prune; max_latency; max_area } ->
      print (Report.Dse_report.render_axes axes ^ "\n\n");
      let store = open_warm ~no_store store_path in
      Fun.protect ~finally:(fun () -> Option.iter Store.close store)
      @@ fun () ->
      let result =
        Power_core.Explorer.explore ~prune ?store ?max_latency ?max_area axes
      in
      print (Report.Dse_report.render result ^ "\n")
    | _ -> assert false
  in
  let doc =
    "Pruned Pareto design-space exploration over the multiplier generators \
     (family x radix x signedness x depth x parallelism x flavor x \
     frequency), warm-started from the on-disk store."
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ jobs_arg $ obs_arg $ store_path_arg $ no_store_arg
      $ call_term "explore"
          [ bits_param; family_param; radix_param; stages_param;
            copies_param; signed_param; fmult_param; tech_param;
            no_prune_param; max_latency_param; max_area_param ])

let export_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE"
           ~doc:"Output path (default: stdout).")
  in
  let run label out =
    let entry = Multipliers.Catalog.find label in
    let spec = entry.build () in
    match out with
    | Some path ->
      Netlist.Verilog.write_file ~path spec.circuit;
      Printf.printf "Wrote %s (%d cells) to %s\n" label
        (Netlist.Circuit.cell_count spec.circuit)
        path
    | None -> print (Netlist.Verilog.to_string spec.circuit)
  in
  let doc = "Export a generated multiplier as structural Verilog." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ catalog_label_arg $ out)

let vcd_cmd =
  let out =
    Arg.(value & opt string "trace.vcd" & info [ "o" ] ~docv:"FILE"
           ~doc:"Output VCD path.")
  in
  let cycles =
    Arg.(value & opt int 16 & info [ "cycles" ] ~doc:"Data cycles to record.")
  in
  let run label out cycles =
    let entry = Multipliers.Catalog.find label in
    let spec = entry.build () in
    let sim = Multipliers.Harness.fresh_simulator spec in
    let nets =
      Array.to_list (Array.mapi (fun i n -> (n, Printf.sprintf "p%d" i)) spec.p_bus)
      @ Array.to_list (Array.mapi (fun i n -> (n, Printf.sprintf "a%d" i)) spec.a_bus)
    in
    let vcd = Logicsim.Vcd.create sim ~nets in
    let rng = Numerics.Rng.create 11 in
    let bound = 1 lsl spec.bits in
    for cycle = 0 to cycles - 1 do
      Logicsim.Bus.drive sim spec.a_bus (Numerics.Rng.int rng bound);
      Logicsim.Bus.drive sim spec.b_bus (Numerics.Rng.int rng bound);
      Logicsim.Simulator.settle sim;
      for _ = 1 to spec.ticks_per_cycle do
        Logicsim.Simulator.clock_tick sim;
        Logicsim.Simulator.settle sim
      done;
      Logicsim.Vcd.sample vcd ~time:(float_of_int (cycle * 10))
    done;
    Logicsim.Vcd.write_file ~path:out vcd;
    Printf.printf "Recorded %d cycles of %s to %s\n" cycles label out
  in
  let doc = "Simulate a multiplier with random stimulus and dump a VCD." in
  Cmd.v (Cmd.info "vcd" ~doc)
    Term.(const run $ catalog_label_arg $ out $ cycles)

let trace_cmd =
  let cycles =
    Arg.(value & opt int 50 & info [ "cycles" ] ~doc:"Data cycles to record.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o" ] ~docv:"FILE" ~doc:"Write the CSV here.")
  in
  let run label cycles out =
    let entry = Multipliers.Catalog.find label in
    let spec = entry.build () in
    let sim = Multipliers.Harness.fresh_simulator spec in
    let rng = Numerics.Rng.create 23 in
    let drive =
      Logicsim.Activity.random_drive ~rng ~buses:[ spec.a_bus; spec.b_bus ]
    in
    let trace =
      Logicsim.Power_trace.record ~ticks_per_cycle:spec.ticks_per_cycle
        ~vdd:1.2 ~cycles ~drive sim
    in
    Printf.printf
      "%s: %d cycles at Vdd=1.2 V - average %.3g pJ/cycle, peak %.3g pJ, \
       peak/average %.2f\n"
      label cycles
      (trace.average_energy *. 1e12)
      (trace.peak_energy *. 1e12)
      trace.peak_to_average;
    match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Logicsim.Power_trace.to_csv trace);
      close_out oc;
      Printf.printf "CSV written to %s\n" path
    | None -> ()
  in
  let doc = "Per-cycle switching-energy trace under random stimulus." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ catalog_label_arg $ cycles $ out)

let check_cmd =
  let samples =
    Arg.(
      value & opt (int_at_least 0) 4
      & info [ "samples" ] ~doc:"Random pairs per design.")
  in
  let run samples =
    let all = Multipliers.Catalog.entries @ Multipliers.Catalog.extensions in
    let failures = ref 0 in
    List.iter
      (fun (entry : Multipliers.Catalog.entry) ->
        let spec = entry.build () in
        let stats = Multipliers.Spec.stats spec in
        let corner = Multipliers.Harness.check_corners spec in
        let random = Multipliers.Harness.check_random ~seed:1 spec ~samples in
        let bad = List.length corner + List.length random in
        if bad > 0 then incr failures;
        Printf.printf "%-18s N=%5d LDeff=%6.1f  %s\n%!" entry.label
          stats.cell_total
          (Multipliers.Spec.logical_depth_effective spec)
          (if bad = 0 then "OK" else Printf.sprintf "%d FAILURES" bad))
      all;
    if !failures > 0 then begin
      Printf.printf "\n%d designs FAILED\n" !failures;
      exit 1
    end
    else Printf.printf "\nAll %d designs multiply correctly.\n" (List.length all)
  in
  let doc =
    "Self-test: every generated design (paper set + extensions) against \
     integer multiplication."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ samples)

let energy_cmd =
  let run label =
    let problem = ll_problem label in
    let points = Power_core.Energy.sweep problem in
    let mep = Power_core.Energy.minimum_energy_point problem in
    print (Report.Studies.render_energy points mep);
    Printf.printf
      "\nThe paper's 31.25 MHz operating point costs %.2fx the MEP energy.\n"
      (mep.overhead_at Power_core.Paper_data.frequency)
  in
  let doc = "Energy per operation vs throughput; minimum energy point." in
  Cmd.v (Cmd.info "energy" ~doc) Term.(const run $ table1_label_arg)

let variation_cmd =
  let samples =
    Arg.(value & opt int 200 & info [ "samples" ] ~doc:"Monte Carlo dies.")
  in
  let run jobs obs label samples =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    let problem = ll_problem label in
    let rng = Numerics.Rng.create 2006 in
    print
      (Report.Studies.render_variation
         (Power_core.Variation.monte_carlo ~samples ~rng problem))
  in
  let doc = "Process-variation Monte Carlo on the optimal working point." in
  Cmd.v (Cmd.info "variation" ~doc)
    Term.(const run $ jobs_arg $ obs_arg $ table1_label_arg $ samples)

let yield_cmd =
  let dies =
    Arg.(value & opt int 100_000
         & info [ "dies" ] ~doc:"Monte Carlo dies (scales to millions).")
  in
  let sampler =
    let doc = "Sampler: $(b,pseudo) (SplitMix64) or $(b,sobol) (QMC)." in
    Arg.(value
         & opt (enum [ ("pseudo", `Pseudo); ("sobol", `Sobol) ]) `Pseudo
         & info [ "sampler" ] ~doc)
  in
  let chunk =
    Arg.(value & opt int 4096
         & info [ "chunk" ]
             ~doc:"Dies per pool task (a multiple of the 64-die warm chain).")
  in
  let run jobs obs label dies sampler chunk =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    let problem = ll_problem label in
    let rng = Numerics.Rng.create 2006 in
    print
      (Report.Studies.render_yield
         (Power_core.Variation.yield_mc ~dies ~chunk ~sampler ~rng problem))
  in
  let doc =
    "Streaming parametric-yield Monte Carlo: per-die re-optimised power \
     distribution and yield vs power budget."
  in
  Cmd.v (Cmd.info "yield" ~doc)
    Term.(
      const run $ jobs_arg $ obs_arg $ table1_label_arg $ dies $ sampler
      $ chunk)

let thermal_cmd =
  let instances =
    Arg.(value & opt positive_int 2000
         & info [ "instances" ]
             ~doc:"Multiplier instances on the die (one is thermally inert).")
  in
  let run label instances =
    let base = Device.Technology.ll in
    let problem0 = ll_problem label in
    let optimum_at (tech : Device.Technology.t) =
      (* Leakage magnifies with die temperature; the 300 K calibration of
         everything else stands. *)
      let heated =
        {
          problem0 with
          Power_core.Power_law.tech = tech;
          params =
            {
              problem0.params with
              Power_core.Arch_params.io_cell =
                problem0.params.io_cell *. tech.io /. base.io;
            };
        }
      in
      float_of_int instances
      *. (Power_core.Numerical_opt.optimum heated).total
    in
    let rows =
      List.map
        (fun r_th -> (r_th, Device.Thermal.self_heating ~r_th ~optimum_at base))
        [ 0.0; 40.0; 100.0; 200.0 ]
    in
    Printf.printf "%d instances of '%s' on one die:\n" instances label;
    print (Report.Studies.render_thermal rows)
  in
  let doc = "Self-heating fixpoint: die temperature vs package R_th." in
  Cmd.v (Cmd.info "thermal" ~doc)
    Term.(const run $ table1_label_arg $ instances)

let lint_cmd =
  let format =
    let doc = "Output format: $(b,text), $(b,json) or $(b,sarif)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let max_per_rule =
    let doc =
      "Cap the text lines printed per (target, rule) pair; the rest are \
       summarised as a count. JSON and SARIF always carry everything."
    in
    Arg.(value & opt int 8 & info [ "max-per-rule" ] ~docv:"N" ~doc)
  in
  let list_rules =
    let doc = "Print the rule registry (id, severity, title) and exit." in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let run jobs obs format max_per_rule list_rules call =
    set_jobs jobs;
    if list_rules then begin
      List.iter
        (fun (m : Analysis.Rule.meta) ->
          Printf.printf "%-26s %-7s %s\n" m.id
            (Analysis.Diagnostic.severity_to_string m.severity)
            m.title)
        Analysis.Rule.all;
      exit 0
    end;
    let only =
      match call with Serve.Protocol.Lint { only } -> only | _ -> assert false
    in
    let code =
      with_obs obs @@ fun () ->
      let report = Serve.Engine.lint ?only () in
      (match format with
      | `Text -> print (Analysis.Render.text ~max_per_rule report)
      | `Json -> print (Analysis.Render.json report)
      | `Sarif -> print (Analysis.Render.sarif report));
      Analysis.Engine.exit_code report
    in
    exit code
  in
  let doc =
    "Static analysis: netlist lint over the 13-multiplier catalog, \
     model-validity rules over every technology flavor and calibration row, \
     and certificate cross-checks against the interval certifier. \
     Exit code 0 when clean, 1 with warnings, 2 with errors."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ jobs_arg $ obs_arg $ format $ max_per_rule $ list_rules
      $ call_term "lint" [ only_param ])

let certify_cmd =
  let run jobs obs call =
    set_jobs jobs;
    let flavors =
      match call with
      | Serve.Protocol.Certify { flavors } -> flavors
      | _ -> assert false
    in
    let code =
      with_obs obs @@ fun () ->
      let rows = Report.Certify_report.rows ~flavors () in
      print (Report.Certify_report.render rows);
      if Report.Certify_report.violations rows > 0 then 1 else 0
    in
    exit code
  in
  let doc =
    "Certified power bounds: prove a Ptot enclosure and minimiser bracket \
     per paper row and flavor by interval branch-and-bound, cross-check \
     the numerical optimum against it, and exit non-zero on any violated \
     enclosure."
  in
  Cmd.v (Cmd.info "certify" ~doc)
    Term.(const run $ jobs_arg $ obs_arg $ call_term "certify" [ tech_param ])

let all_cmd =
  let run jobs obs =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    print (Report.Experiments.render_figure2 (Report.Experiments.figure2 ()));
    print_newline ();
    print (Report.Experiments.render_figure1 (Report.Experiments.figure1 ()));
    print_newline ();
    print (Report.Experiments.render_table1 (Report.Experiments.table1 ()));
    print_newline ();
    print (Report.Experiments.render_wallace (Report.Experiments.table_wallace `Ull));
    print_newline ();
    print (Report.Experiments.render_wallace (Report.Experiments.table_wallace `Hs))
  in
  let doc = "Reproduce every calibrated table and figure in one run." in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ jobs_arg $ obs_arg)

(* The store profile workload runs the same small exploration cold then
   warm against a throwaway store, so the normalized report carries the
   full store.* hit/miss/put fingerprint of one populate + one replay. *)
let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let profile_store_workload () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "optpower-profile-store.%d" (Unix.getpid ()))
  in
  remove_tree dir;
  let axes =
    match
      Serve.Protocol.call_of_params "explore"
        (J.Obj
           [ ("bits", J.Num 4.); ("families", J.Str "booth");
             ("radices", J.Num 4.); ("stages", J.Num 1.);
             ("copies", arr int_num [ 1; 2 ]);
             ("fmults", arr num [ 0.5; 1.0 ]);
             ("tech", J.Str "LL") ])
    with
    | Ok (Serve.Protocol.Explore { axes; _ }) -> axes
    | _ -> assert false
  in
  let pass () =
    match Power_core.Warm.open_store ~path:dir () with
    | None -> ignore (Power_core.Explorer.explore ~cycles:40 axes)
    | Some st ->
      Fun.protect ~finally:(fun () -> Store.close st)
      @@ fun () ->
      ignore (Power_core.Explorer.explore ~cycles:40 ~store:st axes)
  in
  Fun.protect ~finally:(fun () -> remove_tree dir)
  @@ fun () ->
  pass ();
  pass ()

let profile_cmd =
  let which_arg =
    let doc =
      "Workload to profile: $(b,table1), $(b,fig1), $(b,mc), $(b,lint), \
       $(b,yield), $(b,scratch) or $(b,store)."
    in
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("table1", `Table1); ("fig1", `Fig1); ("mc", `Mc);
                  ("yield", `Yield); ("lint", `Lint); ("scratch", `Scratch);
                  ("store", `Store);
                ]))
          None
      & info [] ~docv:"WORKLOAD" ~doc)
  in
  let normalize_arg =
    let doc =
      "Print the scheduling-independent profile: span call counts only (no \
       wall times), scheduler and cache entries hidden. Byte-identical at \
       any $(b,--jobs) value."
    in
    Arg.(value & flag & info [ "normalize" ] ~doc)
  in
  let run jobs normalize trace which =
    set_jobs jobs;
    Obs.set_enabled true;
    Obs.reset ();
    let name, work =
      match which with
      | `Table1 ->
          ("profile.table1", fun () -> ignore (Report.Experiments.table1 ()))
      | `Fig1 ->
          ("profile.fig1", fun () -> ignore (Report.Experiments.figure1 ()))
      | `Mc ->
          ( "profile.mc",
            fun () ->
              let problem = ll_problem "Wallace" in
              let rng = Numerics.Rng.create 2006 in
              ignore (Power_core.Variation.monte_carlo ~samples:120 ~rng problem)
          )
      | `Yield ->
          ( "profile.yield",
            fun () ->
              let problem = ll_problem "Wallace" in
              let rng = Numerics.Rng.create 2006 in
              ignore
                (Power_core.Variation.yield_mc ~dies:20_000 ~sampler:`Sobol
                   ~rng problem) )
      | `Lint -> ("profile.lint", fun () -> ignore (Analysis.Engine.run ()))
      | `Scratch ->
          ( "profile.scratch",
            fun () -> ignore (Report.Experiments.scratch ~cycles:40 ()) )
      | `Store -> ("profile.store", profile_store_workload)
    in
    let t0 = Obs.now_ns () in
    Obs.Span.with_ ~name work;
    let wall_ns = Obs.now_ns () -. t0 in
    print (Obs.Report.profile ~normalize ());
    if not normalize then begin
      let spans_ns = Obs.Report.root_total_ns () in
      Printf.printf
        "\nwall-clock %.1f ms, instrumented root spans %.1f ms (%.1f%%)\n"
        (wall_ns /. 1e6) (spans_ns /. 1e6)
        (100.0 *. spans_ns /. wall_ns)
    end;
    Option.iter
      (fun path ->
        Obs.Report.write_chrome_trace ~path ();
        Printf.printf "Chrome trace written to %s\n" path)
      trace
  in
  let doc =
    "Run one representative workload under full instrumentation and print \
     the span profile tree, counters and histograms. With $(b,--trace) the \
     run is also written as Chrome trace_event JSON."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ jobs_arg $ normalize_arg $ trace_path_arg $ which_arg)

(* Serving: the resident batch solve service and its client (DESIGN.md
   §14). The one-shot [optimum] / [rank] subcommands run the exact same
   Serve.Engine paths the service batches, so a reply from the socket is
   bitwise-identical to the corresponding one-shot output. *)

let socket_arg =
  let doc = "Unix-domain socket path of the service." in
  Arg.(
    value
    & opt string "/tmp/optpower.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let optimum_cmd =
  let run obs json call =
    with_obs obs @@ fun () ->
    match call with
    | _ when json -> print_reply call
    | Serve.Protocol.Optimum { tech; arch } ->
      let p = Serve.Engine.optimum ~tech arch in
      Printf.printf
        "%s/%s: Vdd=%.3f V  Vth=%.3f V  Pdyn=%.2f uW  Pstat=%.2f uW  \
         Ptot=%.2f uW\n"
        (Device.Technology.name tech)
        arch p.vdd p.vth (p.dynamic *. 1e6) (p.static *. 1e6) (p.total *. 1e6)
    | _ -> assert false
  in
  let doc = "Solve one architecture's optimal (Vdd*, Vth*) working point." in
  Cmd.v (Cmd.info "optimum" ~doc)
    Term.(
      const run $ obs_arg $ json_flag
      $ call_term "optimum" ~defaults:default_arch [ arch_param; tech_param ])

let rank_cmd =
  let run jobs obs json call =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    match call with
    | _ when json -> print_reply call
    | Serve.Protocol.Rank { tech; archs } ->
      Printf.printf "%-4s %-16s %-8s %-8s %-10s\n" "#" "arch" "Vdd" "Vth"
        "Ptot[uW]";
      List.iteri
        (fun i (arch, (p : Power_core.Numerical_opt.point)) ->
          Printf.printf "%-4d %-16s %-8.3f %-8.3f %-10.2f\n" (i + 1) arch
            p.vdd p.vth (p.total *. 1e6))
        (Serve.Engine.rank ~tech archs)
    | _ -> assert false
  in
  let doc =
    "Rank architectures by optimal total power (solved as one warm-start \
     continuation family)."
  in
  Cmd.v (Cmd.info "rank" ~doc)
    Term.(
      const run $ jobs_arg $ obs_arg $ json_flag
      $ call_term "rank" [ archs_param; tech_param ])

let serve_cmd =
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the session result cache (identical calls re-solve).")
  in
  let run jobs obs socket no_cache store_path no_store =
    set_jobs jobs;
    with_obs obs @@ fun () ->
    let store = open_warm ~no_store store_path in
    let config = { Serve.Session.jobs; cache = not no_cache; store } in
    (* Block the shutdown signals before spawning any thread (the mask is
       inherited) and dedicate a watcher thread to them: with every
       systhread parked in a blocking syscall an asynchronous
       [Sys.Signal_handle] may never get a safepoint to run on, whereas
       [sigwait] delivery is deterministic. *)
    ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
    let session = Serve.Session.create ~config () in
    let listener = Serve.Server.listen_unix session ~path:socket in
    let _watcher =
      Thread.create
        (fun () ->
          ignore (Thread.wait_signal [ Sys.sigint; Sys.sigterm ]);
          Serve.Server.stop listener)
        ()
    in
    Printf.printf "optpower serve: listening on %s (pool size %d%s)\n%!"
      socket
      (Parallel.Pool.size (Serve.Session.pool session))
      (match store with
      | Some st -> Printf.sprintf ", warm store %s" (Store.path st)
      | None -> ", cold");
    Serve.Server.wait listener;
    Printf.printf "optpower serve: drained, bye\n%!"
  in
  let doc =
    "Run the resident batch solve service: JSON-lines requests over a Unix \
     socket, each one pool task answered as soon as it finishes, warm \
     answers from the on-disk store across restarts. SIGINT or SIGTERM \
     drains gracefully and exits."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ jobs_arg $ obs_arg $ socket_arg $ no_cache $ store_path_arg
      $ no_store_arg)

let store_cmd =
  let action =
    let doc =
      "Action: $(b,stats) (print entry and traffic counts), $(b,gc) \
       (compact the log into a fresh snapshot) or $(b,clear) (drop every \
       entry)."
    in
    Arg.(
      required
      & pos 0
          (some (enum [ ("stats", `Stats); ("gc", `Gc); ("clear", `Clear) ]))
          None
      & info [] ~docv:"ACTION" ~doc)
  in
  let run action store_path =
    let readonly = action = `Stats in
    match open_warm ~readonly ~no_store:false store_path with
    | None ->
      Printf.eprintf "optpower store: cannot open the store\n";
      exit 1
    | Some st ->
      Fun.protect ~finally:(fun () -> Store.close st)
      @@ fun () ->
      (match action with
      | `Stats ->
        let s = Store.stats st in
        Printf.printf "store %s\n" s.Store.path;
        Printf.printf "  fingerprint  %s\n" (Store.fingerprint st);
        Printf.printf "  mode         %s\n"
          (match s.mode with
          | Store.Read_write -> "read-write"
          | Store.Read_only -> "read-only");
        Printf.printf "  entries      %d\n" s.entries;
        Printf.printf "  log bytes    %d\n" s.log_bytes;
        Printf.printf "  index bytes  %d\n" s.index_bytes;
        if s.invalidated then
          Printf.printf "  (stale fingerprint discarded at open)\n";
        if s.recovered > 0 then
          Printf.printf "  (%d torn/corrupt records dropped at open)\n"
            s.recovered
      | `Gc ->
        let retired = Store.gc st in
        Printf.printf "store %s: compacted, %d superseded records retired\n"
          (Store.path st) retired
      | `Clear ->
        Store.clear st;
        Printf.printf "store %s: cleared\n" (Store.path st))
  in
  let doc =
    "Inspect or maintain the on-disk warm store ($(b,stats), $(b,gc), \
     $(b,clear))."
  in
  Cmd.v (Cmd.info "store" ~doc) Term.(const run $ action $ store_path_arg)

let client_cmd =
  let meth =
    let doc =
      "Request method: $(b,optimum), $(b,sweep), $(b,rank), $(b,lint), \
       $(b,certify), $(b,explore) or $(b,store_stats)."
    in
    let methods =
      [ "optimum"; "sweep"; "rank"; "lint"; "certify"; "explore";
        "store_stats" ]
    in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun m -> (m, m)) methods))) None
      & info [] ~docv:"METHOD" ~doc)
  in
  let run socket meth params =
    match Serve.Client.connect socket with
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "optpower client: cannot connect to %s: %s\n" socket
        (Unix.error_message err);
      exit 1
    | client -> (
      let result = Serve.Client.rpc client ~meth params in
      Serve.Client.close client;
      match result with
      | Ok payload -> print (J.to_string payload ^ "\n")
      | Error (code, msg) ->
        Printf.eprintf "optpower client: %s: %s\n" code msg;
        exit 1)
  in
  let doc =
    "Send one request to a running $(b,optpower serve) and print the JSON \
     reply payload. Takes the request flags of the one-shot subcommands; \
     the service validates them."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ meth
      $ params_term
          [ arch_param; tech_param; samples_param; archs_param; only_param;
            bits_param; radix_param; stages_param; copies_param;
            signed_param; fmult_param; no_prune_param; family_param;
            max_latency_param; max_area_param ])

let main =
  let doc =
    "Reproduction of 'Architectural and Technology Influence on the Optimal \
     Total Power Consumption' (Schuster et al., DATE 2006)"
  in
  Cmd.group (Cmd.info "optpower" ~version:"1.0.0" ~doc)
    [
      table1_cmd;
      wallace_cmd "table3" `Ull "Reproduce Table 3 (Wallace family, ULL).";
      wallace_cmd "table4" `Hs "Reproduce Table 4 (Wallace family, HS).";
      table2_cmd;
      fig1_cmd;
      fig2_cmd;
      sketch_cmd;
      scratch_cmd;
      sweep_cmd;
      ablate_cmd;
      freq_cmd;
      widths_cmd;
      extensions_cmd;
      explore_cmd;
      faults_cmd;
      prove_cmd;
      export_cmd;
      vcd_cmd;
      check_cmd;
      trace_cmd;
      energy_cmd;
      variation_cmd;
      yield_cmd;
      thermal_cmd;
      lint_cmd;
      certify_cmd;
      optimum_cmd;
      rank_cmd;
      serve_cmd;
      store_cmd;
      client_cmd;
      profile_cmd;
      all_cmd;
    ]

(* Library input checks raise Invalid_argument (a die count below 1, a
   chunk that is not a multiple of the warm chain, ...): report them as
   usage errors, exit 124. Any other exception is a bug and gets
   Cmdliner's internal-error report, exit 125. *)
let () =
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception Invalid_argument msg ->
      Printf.eprintf "optpower: %s\n" msg;
      Cmd.Exit.cli_error
    | exception e ->
      let lines =
        String.split_on_char '\n'
          (Printexc.to_string e ^ "\n" ^ Printexc.get_backtrace ())
      in
      Format.eprintf
        "optpower: @[<v>internal error, uncaught exception:@,%a@]@."
        (Format.pp_print_list Format.pp_print_string)
        lines;
      Cmd.Exit.internal_error)
