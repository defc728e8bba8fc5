(* Extensions beyond the paper: Booth/Dadda multipliers, Verilog and VCD
   export, the zero-delay reference evaluator (differential testing of the
   event-driven simulator), and the ablation studies. *)

module C = Netlist.Circuit
module Cell = Netlist.Cell
module Logic = Netlist.Logic
module Sim = Logicsim.Simulator

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec search i = i + m <= n && (String.sub haystack i m = needle || search (i + 1)) in
  search 0

(* Booth *)

let test_booth_exhaustive_4bit () =
  let spec = Multipliers.Booth.basic ~bits:4 in
  let sim = Multipliers.Harness.fresh_simulator spec in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" x y)
        (x * y)
        (Multipliers.Harness.compute spec sim x y)
    done
  done

let test_booth_corners_16bit () =
  let spec = Multipliers.Booth.basic ~bits:16 in
  Alcotest.(check int) "corners" 0
    (List.length (Multipliers.Harness.check_corners spec))

let test_booth_rejects_odd_width () =
  Alcotest.(check bool)
    "odd width rejected" true
    (match Multipliers.Booth.basic ~bits:5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_booth_recode_digit_count () =
  let c = C.create "recode" in
  let b = C.add_input_bus c "b" 8 in
  let digits = Multipliers.Booth.recode c ~b in
  Alcotest.(check int) "w/2 + 1 digits" 5 (Array.length digits)

let test_booth_recode_values () =
  (* Drive an operand and read back the decoded digit lines; reconstruct
     the digit values and check they re-encode the operand in radix 4. *)
  let c = C.create "recode" in
  let b = C.add_input_bus c "b" 8 in
  let digits = Multipliers.Booth.recode c ~b in
  Array.iteri
    (fun k (d : Multipliers.Booth.digit) ->
      C.mark_output c d.one (Printf.sprintf "one%d" k);
      C.mark_output c d.two (Printf.sprintf "two%d" k);
      C.mark_output c d.neg (Printf.sprintf "neg%d" k))
    digits;
  let sim = Sim.create c in
  let digit_value (d : Multipliers.Booth.digit) =
    let bit n = if Logic.equal (Sim.value sim n) Logic.One then 1 else 0 in
    let magnitude = bit d.one + (2 * bit d.two) in
    if bit d.neg = 1 then -magnitude else magnitude
  in
  let rng = Numerics.Rng.create 77 in
  for _ = 1 to 50 do
    let value = Numerics.Rng.int rng 256 in
    Logicsim.Bus.drive sim b value;
    Sim.settle sim;
    let reconstructed =
      Array.to_list digits
      |> List.mapi (fun k d -> digit_value d * (1 lsl (2 * k)))
      |> List.fold_left ( + ) 0
    in
    Alcotest.(check int)
      (Printf.sprintf "radix-4 recode of %d" value)
      value reconstructed
  done

let prop_booth16_multiplies =
  QCheck.Test.make ~name:"16-bit Booth multiplies" ~count:25
    QCheck.(pair (int_range 0 65535) (int_range 0 65535))
    (let spec = Multipliers.Booth.basic ~bits:16 in
     let sim = Multipliers.Harness.fresh_simulator spec in
     fun (x, y) -> Multipliers.Harness.compute spec sim x y = x * y)

(* Dadda *)

let test_dadda_heights () =
  Alcotest.(check (list int)) "sequence to 16" [ 13; 9; 6; 4; 3; 2 ]
    (Multipliers.Dadda.heights 16);
  Alcotest.(check (list int)) "sequence to 3" [ 2 ] (Multipliers.Dadda.heights 3)

let test_dadda_exhaustive_4bit () =
  let spec = Multipliers.Dadda.basic ~bits:4 in
  let sim = Multipliers.Harness.fresh_simulator spec in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" x y)
        (x * y)
        (Multipliers.Harness.compute spec sim x y)
    done
  done

let test_dadda_fewer_cells_than_wallace () =
  let dadda = Multipliers.Spec.stats (Multipliers.Dadda.basic ~bits:16) in
  let wallace = Multipliers.Spec.stats (Multipliers.Wallace.basic ~bits:16) in
  Alcotest.(check bool)
    (Printf.sprintf "%d <= %d" dadda.cell_total wallace.cell_total)
    true
    (dadda.cell_total <= wallace.cell_total)

let prop_dadda16_multiplies =
  QCheck.Test.make ~name:"16-bit Dadda multiplies" ~count:25
    QCheck.(pair (int_range 0 65535) (int_range 0 65535))
    (let spec = Multipliers.Dadda.basic ~bits:16 in
     let sim = Multipliers.Harness.fresh_simulator spec in
     fun (x, y) -> Multipliers.Harness.compute spec sim x y = x * y)

let test_extension_catalog () =
  Alcotest.(check int) "four extension entries" 4
    (List.length Multipliers.Catalog.extensions);
  List.iter
    (fun (e : Multipliers.Catalog.entry) ->
      let spec = e.build () in
      Alcotest.(check int)
        (e.label ^ " random check")
        0
        (List.length (Multipliers.Harness.check_random ~seed:5 spec ~samples:4)))
    Multipliers.Catalog.extensions

(* Functional reference evaluator: differential testing. *)

let random_combinational_circuit rng ~inputs ~cells =
  let c = C.create "random" in
  let pool = ref (Array.to_list (C.add_input_bus c "in" inputs)) in
  let pick () = List.nth !pool (Numerics.Rng.int rng (List.length !pool)) in
  let kinds =
    [| Cell.Inv; Cell.Buf; Cell.Nand2; Cell.Nor2; Cell.And2; Cell.Or2;
       Cell.Xor2; Cell.Xnor2; Cell.Mux2; Cell.Half_adder; Cell.Full_adder |]
  in
  for _ = 1 to cells do
    let kind = kinds.(Numerics.Rng.int rng (Array.length kinds)) in
    let ins = Array.init (Cell.arity kind) (fun _ -> pick ()) in
    let outs = C.add_cell c kind ins in
    Array.iter (fun n -> pool := n :: !pool) outs
  done;
  (* A few outputs so Check stays quiet about the frontier. *)
  List.iteri
    (fun i n -> if i < 8 then C.mark_output c n (Printf.sprintf "o%d" i))
    !pool;
  c

let prop_event_sim_matches_functional =
  QCheck.Test.make
    ~name:"event-driven settle == zero-delay functional evaluation"
    ~count:40 QCheck.small_int (fun seed ->
      let rng = Numerics.Rng.create (seed + 1000) in
      let c = random_combinational_circuit rng ~inputs:6 ~cells:40 in
      let sim = Sim.create c in
      let state = ref (Oracles.Functional.initial c) in
      let ok = ref true in
      for _ = 1 to 5 do
        let bindings =
          List.map
            (fun n -> (n, Logic.of_bool (Numerics.Rng.bool rng)))
            (C.primary_inputs c)
        in
        List.iter (fun (n, v) -> Sim.set_input sim n v) bindings;
        Sim.settle sim;
        state := Oracles.Functional.set_inputs c !state bindings;
        for net = 0 to C.net_count c - 1 do
          if not (Logic.equal (Sim.value sim net) (Oracles.Functional.value !state net))
          then ok := false
        done
      done;
      !ok)

let test_functional_clock_matches_simulator () =
  (* Multi-cycle differential test on a real sequential design. *)
  let spec = Multipliers.Sequential.basic ~bits:8 in
  let c = spec.circuit in
  let sim = Sim.create c in
  let state = ref (Oracles.Functional.initial c) in
  let rng = Numerics.Rng.create 13 in
  for cycle = 1 to 40 do
    let bindings =
      List.map
        (fun n -> (n, Logic.of_bool (Numerics.Rng.bool rng)))
        (C.primary_inputs c)
    in
    List.iter (fun (n, v) -> Sim.set_input sim n v) bindings;
    Sim.settle sim;
    state := Oracles.Functional.set_inputs c !state bindings;
    Sim.clock_tick sim;
    Sim.settle sim;
    state := Oracles.Functional.clock c !state;
    Array.iter
      (fun n ->
        Alcotest.(check bool)
          (Printf.sprintf "cycle %d net %d" cycle n)
          true
          (Logic.equal (Sim.value sim n) (Oracles.Functional.value !state n)))
      spec.p_bus
  done

let test_functional_validation () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Inv [| a |] in
  C.mark_output c y "y";
  let state = Oracles.Functional.initial c in
  Alcotest.(check bool)
    "non-input rejected" true
    (match Oracles.Functional.set_inputs c state [ (y, Logic.One) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Verilog export *)

let test_verilog_structure () =
  let spec = Multipliers.Rca.basic ~bits:4 in
  let src = Netlist.Verilog.to_string spec.circuit in
  Alcotest.(check bool) "module present" true (contains src "module rca_basic(");
  Alcotest.(check bool) "clk port (has DFFs)" true (contains src "input clk;");
  Alcotest.(check bool) "FA primitive defined" true (contains src "module OP_FA(");
  Alcotest.(check bool) "DFF primitive defined" true
    (contains src "always @(posedge clk)");
  (* One instantiation line per cell. *)
  let instances =
    String.split_on_char '\n' src
    |> List.filter (fun l -> contains l "  OP_" && contains l " u")
    |> List.length
  in
  Alcotest.(check int) "instances = cells" (C.cell_count spec.circuit) instances

let test_verilog_pure_combinational_has_no_clk () =
  let c = C.create "comb" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Inv [| a |] in
  C.mark_output c y "y";
  let src = Netlist.Verilog.to_string c in
  Alcotest.(check bool) "no clk" false (contains src "input clk;")

let test_verilog_file_roundtrip () =
  let path = Filename.temp_file "optpower" ".v" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let spec = Multipliers.Wallace.basic ~bits:4 in
      Netlist.Verilog.write_file ~path spec.circuit;
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "endmodule present" true (contains content "endmodule"))

(* VCD *)

let test_vcd_format () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Inv [| a |] in
  C.mark_output c y "y";
  let sim = Sim.create c in
  let vcd = Logicsim.Vcd.create sim ~nets:[ (a, "a"); (y, "y") ] in
  Sim.set_input sim a Logic.Zero;
  Sim.settle sim;
  Logicsim.Vcd.sample vcd ~time:0.0;
  Sim.set_input sim a Logic.One;
  Sim.settle sim;
  Logicsim.Vcd.sample vcd ~time:10.0;
  Logicsim.Vcd.sample vcd ~time:20.0;
  let out = Logicsim.Vcd.contents vcd in
  Alcotest.(check bool) "header" true (contains out "$enddefinitions $end");
  Alcotest.(check bool) "var a" true (contains out "$var wire 1 ! a $end");
  Alcotest.(check bool) "t0 record" true (contains out "#0\n");
  Alcotest.(check bool) "t10 record" true (contains out "#10\n");
  (* No change at t=20: no record emitted. *)
  Alcotest.(check bool) "t20 suppressed" false (contains out "#20\n")

let test_vcd_time_monotonic () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  C.mark_output c a "a";
  let sim = Sim.create c in
  let vcd = Logicsim.Vcd.create sim ~nets:[ (a, "a") ] in
  Logicsim.Vcd.sample vcd ~time:5.0;
  Alcotest.(check bool)
    "backwards time rejected" true
    (match Logicsim.Vcd.sample vcd ~time:1.0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Signed multiplication *)

let test_signed_exhaustive_4bit () =
  let spec =
    Multipliers.Signed_mult.basic ~name:"signed_wallace" ~bits:4
      ~unsigned:Multipliers.Wallace.core
  in
  let sim = Multipliers.Harness.fresh_simulator spec in
  for x = -8 to 7 do
    for y = -8 to 7 do
      let got =
        Multipliers.Harness.compute spec sim
          (Multipliers.Signed_mult.of_signed ~bits:4 x)
          (Multipliers.Signed_mult.of_signed ~bits:4 y)
      in
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" x y)
        (x * y)
        (Multipliers.Signed_mult.to_signed ~bits:8 got)
    done
  done

let test_signed_encoding () =
  Alcotest.(check int) "-1 encodes" 15 (Multipliers.Signed_mult.of_signed ~bits:4 (-1));
  Alcotest.(check int) "roundtrip" (-3)
    (Multipliers.Signed_mult.to_signed ~bits:4
       (Multipliers.Signed_mult.of_signed ~bits:4 (-3)));
  Alcotest.(check bool)
    "out of range rejected" true
    (match Multipliers.Signed_mult.of_signed ~bits:4 8 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_signed_booth16 =
  QCheck.Test.make ~name:"16-bit signed Booth-based multiplier" ~count:20
    QCheck.(pair (int_range (-32768) 32767) (int_range (-32768) 32767))
    (let spec =
       Multipliers.Signed_mult.basic ~name:"sb" ~bits:16
         ~unsigned:Multipliers.Booth.core
     in
     let sim = Multipliers.Harness.fresh_simulator spec in
     fun (x, y) ->
       Multipliers.Signed_mult.to_signed ~bits:32
         (Multipliers.Harness.compute spec sim
            (Multipliers.Signed_mult.of_signed ~bits:16 x)
            (Multipliers.Signed_mult.of_signed ~bits:16 y))
       = x * y)

(* Power trace *)

let test_power_trace_consistency () =
  let spec = Multipliers.Wallace.basic ~bits:8 in
  let sim = Multipliers.Harness.fresh_simulator spec in
  let rng = Numerics.Rng.create 19 in
  let drive =
    Logicsim.Activity.random_drive ~rng ~buses:[ spec.a_bus; spec.b_bus ]
  in
  let trace = Logicsim.Power_trace.record ~vdd:1.2 ~cycles:30 ~drive sim in
  Alcotest.(check int) "thirty cycles" 30 (List.length trace.cycles);
  Alcotest.(check bool)
    "peak >= average" true
    (trace.peak_energy >= trace.average_energy);
  Alcotest.(check bool)
    "peak-to-average >= 1" true (trace.peak_to_average >= 1.0);
  List.iter
    (fun (r : Logicsim.Power_trace.cycle_record) ->
      Alcotest.(check (float 1e-21))
        "energy = cap * vdd^2"
        (r.switched_cap *. 1.2 *. 1.2)
        r.energy)
    trace.cycles;
  let csv = Logicsim.Power_trace.to_csv trace in
  Alcotest.(check int)
    "csv rows" 31
    (List.length
       (List.filter
          (fun l -> String.length l > 0)
          (String.split_on_char '\n' csv)))

let test_power_trace_quiet_input () =
  let spec = Multipliers.Wallace.basic ~bits:8 in
  let sim = Multipliers.Harness.fresh_simulator spec in
  let drive sim ~cycle:_ =
    Logicsim.Bus.drive sim spec.a_bus 5;
    Logicsim.Bus.drive sim spec.b_bus 9
  in
  let trace = Logicsim.Power_trace.record ~vdd:1.0 ~cycles:10 ~drive sim in
  Alcotest.(check (float 1e-18)) "no switching energy" 0.0 trace.average_energy

(* Activity convergence *)

let test_measure_until_converges () =
  let spec = Multipliers.Wallace.basic ~bits:8 in
  let sim = Multipliers.Harness.fresh_simulator spec in
  let rng = Numerics.Rng.create 29 in
  let drive =
    Logicsim.Activity.random_drive ~rng ~buses:[ spec.a_bus; spec.b_bus ]
  in
  let c =
    Logicsim.Activity.measure_until ~batch:30 ~rel_tol:0.05 ~max_cycles:1200
      ~drive sim
  in
  Alcotest.(check bool) "stopped below tolerance" true
    (c.relative_stderr < 0.05);
  Alcotest.(check bool) "ran at least two batches" true (c.batches >= 2);
  Alcotest.(check bool)
    "activity sane" true
    (c.result.activity > 0.1 && c.result.activity < 2.0);
  (* Agrees with a long fixed-cycle measurement. *)
  let reference = Multipliers.Harness.measure_activity ~cycles:200 spec in
  Alcotest.(check bool)
    (Printf.sprintf "within 10%% of long run (%.4f vs %.4f)"
       c.result.activity reference.activity)
    true
    (Float.abs ((c.result.activity -. reference.activity) /. reference.activity)
    < 0.10)

(* Export edge cases *)

let test_verilog_name_mangling () =
  let c = C.create "RCA hor.pipe2" in
  let a = C.add_input c "a" in
  C.mark_output c a "p[0]";
  Alcotest.(check string)
    "spaces and dots mangled" "RCA_hor_pipe2" (Netlist.Verilog.module_name c);
  let src = Netlist.Verilog.to_string c in
  Alcotest.(check bool)
    "output name mangled" true
    (let n = String.length src in
     let rec search i =
       i + 8 <= n && (String.sub src i 8 = "p_0_ = n" || search (i + 1))
     in
     search 0)

let test_vcd_many_probes_unique_codes () =
  let c = C.create "wide" in
  let bus = C.add_input_bus c "x" 120 in
  Array.iteri (fun i n -> C.mark_output c n (Printf.sprintf "o%d" i)) bus;
  let sim = Sim.create c in
  let nets =
    Array.to_list (Array.mapi (fun i n -> (n, Printf.sprintf "x%d" i)) bus)
  in
  let vcd = Logicsim.Vcd.create sim ~nets in
  Logicsim.Vcd.sample vcd ~time:0.0;
  let out = Logicsim.Vcd.contents vcd in
  (* 120 probes need two-character codes past index 93; all $var lines must
     be distinct. *)
  let vars =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.length l > 4 && String.sub l 0 4 = "$var")
  in
  Alcotest.(check int) "120 declarations" 120 (List.length vars);
  Alcotest.(check int) "codes unique" 120
    (List.length (List.sort_uniq compare vars))

let test_energy_sweep_validation () =
  let problem =
    Power_core.Calibration.problem_of_row Device.Technology.ll
      ~f:Power_core.Paper_data.frequency
      (Power_core.Paper_data.table1_find "RCA")
  in
  Alcotest.(check bool)
    "points < 2 rejected" true
    (match Power_core.Energy.sweep ~points:1 problem with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_spec_and_technology_printers () =
  let spec = Multipliers.Wallace.basic ~bits:8 in
  let spec_text = Format.asprintf "%a" Multipliers.Spec.pp spec in
  Alcotest.(check bool)
    "spec pp mentions name and N" true
    (let has needle =
       let n = String.length spec_text and m = String.length needle in
       let rec go i = i + m <= n && (String.sub spec_text i m = needle || go (i + 1)) in
       go 0
     in
     has "Wallace" && has "N=");
  let tech_text = Format.asprintf "%a" Device.Technology.pp Device.Technology.ll in
  Alcotest.(check bool)
    "technology pp mentions flavor" true
    (String.length tech_text > 10 && String.sub tech_text 0 2 = "LL")

(* Ablations *)

let calibrated_rca () =
  Power_core.Calibration.problem_of_row Device.Technology.ll
    ~f:Power_core.Paper_data.frequency
    (Power_core.Paper_data.table1_find "RCA")

let test_dibl_invariance () =
  let rows = Power_core.Ablation.dibl_sweep (calibrated_rca ()) in
  match rows with
  | first :: rest ->
    List.iter
      (fun (r : Power_core.Ablation.dibl_row) ->
        Alcotest.(check (float 1e-12)) "ptot invariant" first.ptot r.ptot;
        Alcotest.(check (float 1e-12))
          "effective vth invariant" first.vth_effective r.vth_effective;
        Alcotest.(check (float 1e-9))
          "vth0 shifts by eta*vdd"
          (r.vth_effective +. (r.eta *. (calibrated_rca () |> Power_core.Numerical_opt.optimum).vdd))
          r.vth0_required)
      rest
  | [] -> Alcotest.fail "no rows"

let test_linearization_range_minimum_at_paper_choice () =
  let rows = Power_core.Ablation.linearization_range_sweep () in
  let err hi =
    (List.find (fun (r : Power_core.Ablation.lin_range_row) -> r.hi = hi) rows)
      .max_abs_err_pct
  in
  Alcotest.(check bool) "1.0 beats 0.6" true (err 1.0 < err 0.6);
  Alcotest.(check bool) "1.0 beats 1.6" true (err 1.0 < err 1.6);
  Alcotest.(check bool) "paper range < 3%" true (err 1.0 < 3.0)

let test_glitch_ablation_rca () =
  let rows =
    Power_core.Ablation.glitch_ablation ~cycles:60 Device.Technology.ll
      ~f:Power_core.Paper_data.frequency ~labels:[ "RCA"; "RCA hor.pipe4" ]
  in
  List.iter
    (fun (r : Power_core.Ablation.glitch_row) ->
      Alcotest.(check bool)
        (r.label ^ " glitch power positive")
        true
        (r.glitch_power_pct > 0.0 && r.glitch_power_pct < 100.0);
      Alcotest.(check bool)
        (r.label ^ " quiet activity smaller")
        true
        (r.activity_no_glitch < r.activity_full))
    rows;
  (* Pipelining reduces the glitch share. *)
  match rows with
  | [ flat; piped ] ->
    Alcotest.(check bool)
      "pipe4 glitch share below flat" true
      (piped.glitch_power_pct < flat.glitch_power_pct)
  | _ -> Alcotest.fail "expected two rows"

let test_frequency_sweep_shape () =
  let params =
    Power_core.Calibration.params_of_row Device.Technology.ll
      ~f:Power_core.Paper_data.frequency
      (Power_core.Paper_data.table1_find "Wallace")
  in
  let points = Power_core.Ablation.frequency_sweep ~points:7 params in
  Alcotest.(check int) "seven points" 7 (List.length points);
  (* Power grows with frequency for every feasible flavor. *)
  let totals name =
    List.filter_map
      (fun (p : Power_core.Ablation.freq_point) -> List.assoc name p.per_tech)
      points
  in
  List.iter
    (fun name ->
      let series = totals name in
      let sorted = List.sort Float.compare series in
      Alcotest.(check bool) (name ^ " monotone in f") true (series = sorted))
    [ "ULL"; "LL"; "HS" ]

let test_width_scaling_monotone () =
  let rows =
    Power_core.Ablation.width_scaling ~widths:[ 8; 12; 16 ] ~cycles:40
      Device.Technology.ll ~f:Power_core.Paper_data.frequency
  in
  let rec pairwise = function
    | (a : Power_core.Ablation.width_row) :: b :: rest ->
      Alcotest.(check bool) "rca grows" true (b.rca_ptot > a.rca_ptot);
      Alcotest.(check bool) "wallace grows" true (b.wallace_ptot > a.wallace_ptot);
      Alcotest.(check bool) "wallace cheaper" true (a.wallace_ptot < a.rca_ptot);
      pairwise (b :: rest)
    | [ last ] ->
      Alcotest.(check bool) "wallace cheaper" true (last.wallace_ptot < last.rca_ptot)
    | [] -> ()
  in
  pairwise rows

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "extensions"
    [
      ( "booth",
        [
          Alcotest.test_case "exhaustive 4-bit" `Quick test_booth_exhaustive_4bit;
          Alcotest.test_case "corners 16-bit" `Slow test_booth_corners_16bit;
          Alcotest.test_case "rejects odd width" `Quick test_booth_rejects_odd_width;
          Alcotest.test_case "digit count" `Quick test_booth_recode_digit_count;
          Alcotest.test_case "recode values" `Quick test_booth_recode_values;
        ]
        @ qsuite [ prop_booth16_multiplies ] );
      ( "dadda",
        [
          Alcotest.test_case "height sequence" `Quick test_dadda_heights;
          Alcotest.test_case "exhaustive 4-bit" `Quick test_dadda_exhaustive_4bit;
          Alcotest.test_case "fewer cells than wallace" `Quick
            test_dadda_fewer_cells_than_wallace;
        ]
        @ qsuite [ prop_dadda16_multiplies ] );
      ( "catalog-extensions",
        [ Alcotest.test_case "all correct" `Slow test_extension_catalog ] );
      ( "functional",
        [
          Alcotest.test_case "sequential differential" `Slow
            test_functional_clock_matches_simulator;
          Alcotest.test_case "validation" `Quick test_functional_validation;
        ]
        @ qsuite [ prop_event_sim_matches_functional ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "combinational has no clk" `Quick
            test_verilog_pure_combinational_has_no_clk;
          Alcotest.test_case "file roundtrip" `Quick test_verilog_file_roundtrip;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "format" `Quick test_vcd_format;
          Alcotest.test_case "time monotonic" `Quick test_vcd_time_monotonic;
          Alcotest.test_case "many probes" `Quick test_vcd_many_probes_unique_codes;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "verilog mangling" `Quick test_verilog_name_mangling;
          Alcotest.test_case "energy sweep validation" `Quick
            test_energy_sweep_validation;
          Alcotest.test_case "printers" `Quick test_spec_and_technology_printers;
        ] );
      ( "signed",
        [
          Alcotest.test_case "exhaustive 4-bit" `Quick test_signed_exhaustive_4bit;
          Alcotest.test_case "encoding" `Quick test_signed_encoding;
        ]
        @ qsuite [ prop_signed_booth16 ] );
      ( "power_trace",
        [
          Alcotest.test_case "consistency" `Quick test_power_trace_consistency;
          Alcotest.test_case "quiet input" `Quick test_power_trace_quiet_input;
        ] );
      ( "activity_convergence",
        [ Alcotest.test_case "converges" `Slow test_measure_until_converges ] );
      ( "ablations",
        [
          Alcotest.test_case "dibl invariance" `Quick test_dibl_invariance;
          Alcotest.test_case "linearization range" `Slow
            test_linearization_range_minimum_at_paper_choice;
          Alcotest.test_case "glitch power" `Slow test_glitch_ablation_rca;
          Alcotest.test_case "frequency sweep" `Slow test_frequency_sweep_shape;
          Alcotest.test_case "width scaling" `Slow test_width_scaling_monotone;
        ] );
    ]
