(* The thirteen multiplier generators: functional correctness (hardware vs
   integer multiplication), structure, pipelining and parallelisation
   machinery. *)

module C = Netlist.Circuit
module Cell = Netlist.Cell
module Logic = Netlist.Logic
module Sim = Logicsim.Simulator

(* Adders *)

let test_ripple_carry_adds () =
  let width = 6 in
  let c = C.create "rca" in
  let a = C.add_input_bus c "a" width in
  let b = C.add_input_bus c "b" width in
  let sum, cout = Multipliers.Adders.ripple_carry c a b in
  C.mark_output_bus c sum "s";
  C.mark_output c cout "cout";
  let sim = Sim.create c in
  let check x y =
    Logicsim.Bus.drive sim a x;
    Logicsim.Bus.drive sim b y;
    Sim.settle sim;
    let s = Logicsim.Bus.read_exn sim sum in
    let carry = if Logic.equal (Sim.value sim cout) Logic.One then 1 else 0 in
    Alcotest.(check int)
      (Printf.sprintf "%d + %d" x y)
      (x + y)
      (s lor (carry lsl width))
  in
  let rng = Numerics.Rng.create 5 in
  for _ = 1 to 30 do
    check (Numerics.Rng.int rng 64) (Numerics.Rng.int rng 64)
  done;
  check 63 63;
  check 0 0

let test_sklansky_matches_ripple () =
  let width = 8 in
  let c = C.create "sk" in
  let a = C.add_input_bus c "a" width in
  let b = C.add_input_bus c "b" width in
  let sum = Multipliers.Adders.sklansky c a b in
  C.mark_output_bus c sum "s";
  let sim = Sim.create c in
  let rng = Numerics.Rng.create 8 in
  for _ = 1 to 40 do
    let x = Numerics.Rng.int rng 256 and y = Numerics.Rng.int rng 256 in
    Logicsim.Bus.drive sim a x;
    Logicsim.Bus.drive sim b y;
    Sim.settle sim;
    Alcotest.(check int)
      (Printf.sprintf "%d + %d mod 256" x y)
      ((x + y) land 255)
      (Logicsim.Bus.read_exn sim sum)
  done

let test_sklansky_depth_logarithmic () =
  (* The prefix adder's whole point: depth grows ~log, not linearly. *)
  let depth width =
    let c = C.create "d" in
    let a = C.add_input_bus c "a" width in
    let b = C.add_input_bus c "b" width in
    let sum = Multipliers.Adders.sklansky c a b in
    C.mark_output_bus c sum "s";
    Netlist.Timing.logical_depth c
  in
  let d8 = depth 8 and d32 = depth 32 in
  Alcotest.(check bool)
    (Printf.sprintf "depth(32)=%.1f < 2*depth(8)=%.1f" d32 (2.0 *. d8))
    true
    (d32 < 2.0 *. d8)

let test_add3_folding () =
  let c = C.create "add3" in
  let a = C.add_input c "a" in
  (* Zero inputs: nothing. *)
  Alcotest.(check bool)
    "empty" true
    (Multipliers.Adders.add3 c None None None = (None, None));
  (* One input: a wire, no cell. *)
  let before = C.cell_count c in
  let sum, carry = Multipliers.Adders.add3 c (Some a) None None in
  Alcotest.(check bool) "wire sum" true (sum = Some a && carry = None);
  Alcotest.(check int) "no cell added" before (C.cell_count c);
  (* Two inputs: a half adder. *)
  let sum, carry = Multipliers.Adders.add3 c (Some a) (Some a) None in
  Alcotest.(check bool) "ha outputs" true (sum <> None && carry <> None);
  Alcotest.(check int) "one cell added" (before + 1) (C.cell_count c)

let test_reduce_to_two () =
  let c = C.create "csa" in
  let bits = C.add_input_bus c "x" 9 in
  let columns = Array.make 6 [] in
  Array.iteri (fun i n -> columns.(i mod 2) <- Some n :: columns.(i mod 2)) bits;
  let reduced = Multipliers.Adders.reduce_to_two c columns in
  Array.iteri
    (fun i col ->
      Alcotest.(check bool)
        (Printf.sprintf "column %d height <= 2" i)
        true
        (List.length col <= 2))
    reduced

(* Full multiplier correctness. Exhaustive small-width checks on the two
   combinational cores, corner + random checks on all thirteen 16-bit
   catalog entries. *)

let test_array_core_exhaustive_4bit () =
  let spec = Multipliers.Rca.basic ~bits:4 in
  let sim = Multipliers.Harness.fresh_simulator spec in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" x y)
        (x * y)
        (Multipliers.Harness.compute spec sim x y)
    done
  done

let test_wallace_core_exhaustive_4bit () =
  let spec = Multipliers.Wallace.basic ~bits:4 in
  let sim = Multipliers.Harness.fresh_simulator spec in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" x y)
        (x * y)
        (Multipliers.Harness.compute spec sim x y)
    done
  done

let catalog_correctness_case (entry : Multipliers.Catalog.entry) =
  Alcotest.test_case entry.label `Slow (fun () ->
      let spec = entry.build () in
      let corner_failures = Multipliers.Harness.check_corners spec in
      Alcotest.(check int)
        (entry.label ^ " corners")
        0
        (List.length corner_failures);
      let random_failures =
        Multipliers.Harness.check_random ~seed:2024 spec ~samples:6
      in
      Alcotest.(check int)
        (entry.label ^ " random")
        0
        (List.length random_failures))

(* Pipeliner: streaming equivalence — products appear exactly
   latency-shifted when new operands are applied EVERY cycle. *)
let test_pipeline_streaming () =
  let spec =
    Multipliers.Rca.pipelined ~bits:8 ~stages:2 ~cut:Multipliers.Rca.Horizontal
  in
  let sim = Sim.create spec.circuit in
  let rng = Numerics.Rng.create 31 in
  let inputs = List.init 20 (fun _ -> (Numerics.Rng.int rng 256, Numerics.Rng.int rng 256)) in
  let outputs = ref [] in
  List.iter
    (fun (x, y) ->
      Logicsim.Bus.drive sim spec.a_bus x;
      Logicsim.Bus.drive sim spec.b_bus y;
      Sim.settle sim;
      Sim.clock_tick sim;
      Sim.settle sim;
      outputs := Logicsim.Bus.read sim spec.p_bus :: !outputs)
    inputs;
  let outputs = List.rev !outputs in
  (* Latency = input reg + (stages-1) banks + output reg = stages + 1. *)
  let latency = 3 in
  List.iteri
    (fun i (x, y) ->
      match List.nth_opt outputs (i + latency - 1) with
      | Some (Some product) ->
        Alcotest.(check int)
          (Printf.sprintf "stream slot %d: %d*%d" i x y)
          (x * y) product
      | Some None | None -> ())
    inputs

let test_depth_pipelined_wallace () =
  let basic_depth =
    Netlist.Timing.logical_depth (Multipliers.Wallace.basic ~bits:16).circuit
  in
  let previous = ref basic_depth in
  List.iter
    (fun stages ->
      let spec = Multipliers.Wallace.pipelined ~bits:16 ~stages in
      Alcotest.(check int)
        (Printf.sprintf "pipe%d correct" stages)
        0
        (List.length (Multipliers.Harness.check_random ~seed:6 spec ~samples:5));
      let depth = Netlist.Timing.logical_depth spec.circuit in
      Alcotest.(check bool)
        (Printf.sprintf "pipe%d shallower (%.1f < %.1f)" stages depth !previous)
        true (depth < !previous);
      previous := depth)
    [ 2; 4 ];
  Alcotest.(check bool)
    "stages < 2 rejected" true
    (match Multipliers.Wallace.pipelined ~bits:8 ~stages:1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pipeliner_rejects_decreasing_stages () =
  let c = C.create "bad" in
  let a = C.add_input c "a" in
  let x1 = C.add_gate c Cell.Inv [| a |] in
  let x2 = C.add_gate c Cell.Inv [| x1 |] in
  let stage_of_cell id =
    (* First cell stage 1, its consumer stage 0: invalid. *)
    match C.driver c x1 with
    | Some (first, _) -> Some (if id = first then 1 else 0)
    | None -> None
  in
  Alcotest.(check bool)
    "decreasing stage rejected" true
    (match
       Multipliers.Pipeliner.insert c ~stage_of_cell ~max_stage:1
         ~outputs:[| x2 |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pipeliner_shares_chains () =
  let c = C.create "share" in
  let a = C.add_input c "a" in
  let g1 = C.add_gate c Cell.Inv [| a |] in
  let g2 = C.add_gate c Cell.Inv [| a |] in
  let id n = match C.driver c n with Some (i, _) -> i | None -> -1 in
  let stage_of_cell cid =
    if cid = id g1 || cid = id g2 then Some 1 else None
  in
  let before = C.cell_count c in
  let _ = Multipliers.Pipeliner.insert c ~stage_of_cell ~max_stage:1 ~outputs:[||] in
  (* Both inverters need [a] delayed by 1: one shared flip-flop. *)
  Alcotest.(check int) "one shared register"
    (before + 1) (C.cell_count c)

(* Parallelize *)

let test_ring_counter_one_hot () =
  let c = C.create "ring" in
  let phases = Multipliers.Parallelize.ring_counter c ~length:4 ~hot:1 in
  Array.iter (fun p -> C.mark_output c p "phase") phases;
  let sim = Sim.create c in
  let hot_index () =
    let hot = ref [] in
    Array.iteri
      (fun i p -> if Logic.equal (Sim.value sim p) Logic.One then hot := i :: !hot)
      phases;
    !hot
  in
  Alcotest.(check (list int)) "initial hot" [ 1 ] (hot_index ());
  for step = 2 to 9 do
    Sim.clock_tick sim;
    Sim.settle sim;
    Alcotest.(check (list int))
      (Printf.sprintf "step %d" step)
      [ step mod 4 ] (hot_index ())
  done

let test_parallelize_validation () =
  Alcotest.(check bool)
    "copies < 2 rejected" true
    (match
       Multipliers.Parallelize.wrap ~name:"x" ~bits:4 ~copies:1
         ~core:Multipliers.Rca.core ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_parallelize_structure () =
  let basic = Multipliers.Rca.basic ~bits:8 in
  let par2 =
    Multipliers.Parallelize.wrap ~name:"p2" ~bits:8 ~copies:2
      ~core:Multipliers.Rca.core ()
  in
  let nb = (Multipliers.Spec.stats basic).cell_total in
  let np = (Multipliers.Spec.stats par2).cell_total in
  Alcotest.(check bool)
    (Printf.sprintf "N grows ~2x (%d -> %d)" nb np)
    true
    (float_of_int np > 1.8 *. float_of_int nb
    && float_of_int np < 2.8 *. float_of_int nb);
  Alcotest.(check (float 1e-9)) "timing periods" 2.0 par2.timing_periods;
  Alcotest.(check bool)
    "LDeff halves"
    true
    (Multipliers.Spec.logical_depth_effective par2
     < 0.7 *. Multipliers.Spec.logical_depth_effective basic)

(* Cycle-accurate differential test of a replicated (round-robin) design
   against the zero-delay oracle: the control machinery (ring counter,
   loadable registers, output mux) must agree tick for tick, not just on
   settled products. *)
let test_replicated_matches_functional_oracle () =
  let spec =
    Multipliers.Parallelize.wrap ~name:"par2" ~bits:6 ~copies:2
      ~core:Multipliers.Rca.core ()
  in
  let c = spec.circuit in
  let sim = Sim.create c in
  let state = ref (Oracles.Functional.initial c) in
  let rng = Numerics.Rng.create 61 in
  for cycle = 1 to 24 do
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
          (Printf.sprintf "cycle %d product bit %d" cycle n)
          true
          (Logic.equal (Sim.value sim n) (Oracles.Functional.value !state n)))
      spec.p_bus
  done

let test_verilog_exports_whole_catalog () =
  List.iter
    (fun (entry : Multipliers.Catalog.entry) ->
      let spec = entry.build () in
      let src = Netlist.Verilog.to_string spec.circuit in
      let count needle =
        let n = String.length src and m = String.length needle in
        let rec go i acc =
          if i + m > n then acc
          else go (i + 1) (if String.sub src i m = needle then acc + 1 else acc)
        in
        go 0 0
      in
      Alcotest.(check int)
        (entry.label ^ ": modules balanced")
        (count "\nmodule ") (count "endmodule");
      Alcotest.(check bool)
        (entry.label ^ ": non-trivial")
        true
        (String.length src > 1000))
    Multipliers.Catalog.entries

let test_spec_optimize_shrinks_wallace () =
  let raw = Multipliers.Wallace.basic ~bits:16 in
  let stats = Multipliers.Spec_optimize.stats raw in
  Alcotest.(check bool)
    (Printf.sprintf "folds found (%d const, %d alias)" stats.folded_constants
       stats.aliased)
    true
    (stats.folded_constants > 0 && stats.aliased > 0);
  Alcotest.(check bool)
    "netlist shrinks" true
    (stats.cells_after < stats.cells_before);
  let optimized = Multipliers.Spec_optimize.run raw in
  Alcotest.(check int)
    "still multiplies" 0
    (List.length (Multipliers.Harness.check_random ~seed:77 optimized ~samples:5))

(* Catalog / Spec *)

let test_catalog_shape () =
  Alcotest.(check int) "thirteen entries" 13
    (List.length Multipliers.Catalog.entries);
  let labels = List.map (fun (e : Multipliers.Catalog.entry) -> e.label) Multipliers.Catalog.entries in
  Alcotest.(check int)
    "labels unique" 13
    (List.length (List.sort_uniq compare labels));
  (* Every label matches a Table 1 row label. *)
  List.iter
    (fun label -> ignore (Power_core.Paper_data.table1_find label))
    labels;
  Alcotest.(check bool)
    "find raises" true
    (match Multipliers.Catalog.find "nonsense" with
    | _ -> false
    | exception Not_found -> true)

let test_spec_ld_eff_styles () =
  let basic = Multipliers.Rca.basic ~bits:8 in
  Alcotest.(check bool)
    "flat ld = sta ld" true
    (Multipliers.Spec.logical_depth_effective basic
     = Netlist.Timing.logical_depth basic.circuit);
  let seq = Multipliers.Sequential.basic ~bits:8 in
  Alcotest.(check bool)
    "sequential ld multiplied" true
    (Multipliers.Spec.logical_depth_effective seq
     = 8.0 *. Netlist.Timing.logical_depth seq.circuit)

let test_cut_preview_monotone () =
  List.iter
    (fun cut ->
      let grid = Multipliers.Rca.cut_preview ~bits:8 ~stages:4 ~cut in
      (* Along carry edges (row+1, same col) stages never decrease. *)
      for row = 0 to Array.length grid - 2 do
        for col = 0 to Array.length grid.(0) - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "monotone at (%d,%d)" row col)
            true
            (grid.(row + 1).(col) >= grid.(row).(col))
        done
      done)
    [ Multipliers.Rca.Horizontal; Multipliers.Rca.Diagonal ]

let test_all_netlists_well_formed () =
  List.iter
    (fun (entry : Multipliers.Catalog.entry) ->
      let spec = entry.build () in
      Alcotest.(check int)
        (entry.label ^ " structurally sound")
        0
        (List.length (Netlist.Check.errors spec.circuit)))
    Multipliers.Catalog.entries

let prop_rca8_multiplies =
  QCheck.Test.make ~name:"8-bit RCA multiplies" ~count:30
    QCheck.(pair (int_range 0 255) (int_range 0 255))
    (let spec = Multipliers.Rca.basic ~bits:8 in
     let sim = Multipliers.Harness.fresh_simulator spec in
     fun (x, y) -> Multipliers.Harness.compute spec sim x y = x * y)

let prop_wallace8_multiplies =
  QCheck.Test.make ~name:"8-bit Wallace multiplies" ~count:30
    QCheck.(pair (int_range 0 255) (int_range 0 255))
    (let spec = Multipliers.Wallace.basic ~bits:8 in
     let sim = Multipliers.Harness.fresh_simulator spec in
     fun (x, y) -> Multipliers.Harness.compute spec sim x y = x * y)

let prop_seq8_multiplies =
  QCheck.Test.make ~name:"8-bit sequential multiplies" ~count:15
    QCheck.(pair (int_range 0 255) (int_range 0 255))
    (let spec = Multipliers.Sequential.basic ~bits:8 in
     let sim = Multipliers.Harness.fresh_simulator spec in
     fun (x, y) -> Multipliers.Harness.compute spec sim x y = x * y)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "multipliers"
    [
      ( "adders",
        [
          Alcotest.test_case "ripple carry" `Quick test_ripple_carry_adds;
          Alcotest.test_case "sklansky vs ripple" `Quick test_sklansky_matches_ripple;
          Alcotest.test_case "sklansky depth" `Quick test_sklansky_depth_logarithmic;
          Alcotest.test_case "add3 folding" `Quick test_add3_folding;
          Alcotest.test_case "reduce to two" `Quick test_reduce_to_two;
        ] );
      ( "exhaustive-4bit",
        [
          Alcotest.test_case "rca" `Quick test_array_core_exhaustive_4bit;
          Alcotest.test_case "wallace" `Quick test_wallace_core_exhaustive_4bit;
        ] );
      ( "catalog-correctness",
        List.map catalog_correctness_case Multipliers.Catalog.entries );
      ( "pipelining",
        [
          Alcotest.test_case "streaming equivalence" `Quick test_pipeline_streaming;
          Alcotest.test_case "depth-based wallace" `Quick test_depth_pipelined_wallace;
          Alcotest.test_case "rejects decreasing stages" `Quick
            test_pipeliner_rejects_decreasing_stages;
          Alcotest.test_case "shares register chains" `Quick
            test_pipeliner_shares_chains;
        ] );
      ( "parallelize",
        [
          Alcotest.test_case "ring counter one-hot" `Quick test_ring_counter_one_hot;
          Alcotest.test_case "validation" `Quick test_parallelize_validation;
          Alcotest.test_case "structure" `Quick test_parallelize_structure;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "replicated vs functional" `Quick
            test_replicated_matches_functional_oracle;
          Alcotest.test_case "verilog whole catalog" `Slow
            test_verilog_exports_whole_catalog;
          Alcotest.test_case "spec optimize shrinks wallace" `Quick
            test_spec_optimize_shrinks_wallace;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "shape" `Quick test_catalog_shape;
          Alcotest.test_case "ld_eff per style" `Quick test_spec_ld_eff_styles;
          Alcotest.test_case "cut preview monotone" `Quick test_cut_preview_monotone;
          Alcotest.test_case "all netlists well-formed" `Slow
            test_all_netlists_well_formed;
        ] );
      ( "properties",
        qsuite [ prop_rca8_multiplies; prop_wallace8_multiplies; prop_seq8_multiplies ] );
    ]
