(* Netlist substrate: three-valued logic, the cell library, the circuit
   builder, structural checks and static timing analysis. *)

module C = Netlist.Circuit
module Cell = Netlist.Cell
module Logic = Netlist.Logic

let check_close eps = Alcotest.(check (float eps))

let value_t =
  Alcotest.testable
    (fun ppf v -> Netlist.Logic.pp ppf v)
    Netlist.Logic.equal

(* Logic *)

let all_values = [ Logic.Zero; Logic.One; Logic.X ]

let test_logic_bool_roundtrip () =
  Alcotest.(check (option bool)) "zero" (Some false) (Logic.to_bool Logic.Zero);
  Alcotest.(check (option bool)) "one" (Some true) (Logic.to_bool Logic.One);
  Alcotest.(check (option bool)) "x" None (Logic.to_bool Logic.X);
  Alcotest.check value_t "of_bool true" Logic.One (Logic.of_bool true);
  Alcotest.check value_t "of_bool false" Logic.Zero (Logic.of_bool false)

let test_logic_gates_on_booleans () =
  (* On known values the gates agree with Bool. *)
  let known = [ (Logic.Zero, false); (Logic.One, true) ] in
  List.iter
    (fun (a, ba) ->
      Alcotest.check value_t "not" (Logic.of_bool (not ba)) (Logic.lnot a);
      List.iter
        (fun (b, bb) ->
          Alcotest.check value_t "and" (Logic.of_bool (ba && bb)) (Logic.land_ a b);
          Alcotest.check value_t "or" (Logic.of_bool (ba || bb)) (Logic.lor_ a b);
          Alcotest.check value_t "xor" (Logic.of_bool (ba <> bb)) (Logic.lxor_ a b))
        known)
    known

let test_logic_x_optimism () =
  Alcotest.check value_t "0 and X = 0" Logic.Zero (Logic.land_ Logic.Zero Logic.X);
  Alcotest.check value_t "1 or X = 1" Logic.One (Logic.lor_ Logic.One Logic.X);
  Alcotest.check value_t "1 and X = X" Logic.X (Logic.land_ Logic.One Logic.X);
  Alcotest.check value_t "X xor 1 = X" Logic.X (Logic.lxor_ Logic.X Logic.One);
  Alcotest.check value_t "mux X sel, equal data" Logic.One
    (Logic.mux ~sel:Logic.X Logic.One Logic.One);
  Alcotest.check value_t "mux X sel, unequal data" Logic.X
    (Logic.mux ~sel:Logic.X Logic.Zero Logic.One)

let test_logic_full_add_exhaustive () =
  (* On fully known inputs, matches integer addition. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              let sum, carry = Logic.full_add a b c in
              match (Logic.to_bool a, Logic.to_bool b, Logic.to_bool c) with
              | Some ba, Some bb, Some bc ->
                let total =
                  (if ba then 1 else 0) + (if bb then 1 else 0)
                  + if bc then 1 else 0
                in
                Alcotest.check value_t "sum" (Logic.of_bool (total land 1 = 1)) sum;
                Alcotest.check value_t "carry" (Logic.of_bool (total >= 2)) carry
              | _ -> ())
            all_values)
        all_values)
    all_values

let test_logic_full_add_majority_optimism () =
  (* Carry known when two knowns agree, even with an X third input. *)
  let _, carry = Logic.full_add Logic.One Logic.One Logic.X in
  Alcotest.check value_t "carry 1" Logic.One carry;
  let _, carry = Logic.full_add Logic.Zero Logic.Zero Logic.X in
  Alcotest.check value_t "carry 0" Logic.Zero carry

(* Cell *)

let test_cell_shapes () =
  List.iter
    (fun kind ->
      let inputs = Array.make (Cell.arity kind) Logic.Zero in
      let outputs = Cell.eval kind inputs in
      Alcotest.(check int)
        (Cell.name kind ^ " output count")
        (Cell.output_count kind) (Array.length outputs);
      (* Every declared output has a delay. *)
      for o = 0 to Cell.output_count kind - 1 do
        Alcotest.(check bool)
          (Cell.name kind ^ " delay >= 0")
          true
          (Cell.delay kind ~output:o >= 0.0)
      done)
    Cell.all

let test_cell_eval_arity_check () =
  Alcotest.(check bool)
    "wrong arity rejected" true
    (match Cell.eval Cell.Nand2 [| Logic.One |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cell_delay_bounds () =
  Alcotest.(check bool)
    "bad output index rejected" true
    (match Cell.delay Cell.Inv ~output:1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cell_fa_matches_logic () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              let expected_sum, expected_carry = Logic.full_add a b c in
              match Cell.eval Cell.Full_adder [| a; b; c |] with
              | [| sum; carry |] ->
                Alcotest.check value_t "sum" expected_sum sum;
                Alcotest.check value_t "carry" expected_carry carry
              | _ -> Alcotest.fail "FA must have two outputs")
            all_values)
        all_values)
    all_values

let test_cell_sequential_flag () =
  Alcotest.(check bool) "dff" true (Cell.is_sequential Cell.Dff);
  Alcotest.(check bool) "inv" false (Cell.is_sequential Cell.Inv)

(* Circuit *)

let test_circuit_builder () =
  let c = C.create "t" in
  let a = C.add_input c "a" and b = C.add_input c "b" in
  let y = C.add_gate c Cell.And2 [| a; b |] in
  C.mark_output c y "y";
  Alcotest.(check int) "one cell" 1 (C.cell_count c);
  Alcotest.(check int) "three nets" 3 (C.net_count c);
  Alcotest.(check bool) "a is primary" true (C.is_primary_input c a);
  Alcotest.(check bool) "y driven" false (C.is_primary_input c y);
  (match C.driver c y with
  | Some (id, 0) ->
    let cell = C.get_cell c id in
    Alcotest.(check bool) "driver is the AND" true (cell.kind = Cell.And2)
  | Some _ | None -> Alcotest.fail "bad driver");
  let fanout = C.fanout c in
  Alcotest.(check int) "a read once" 1 (List.length fanout.(a))

let test_circuit_bus_naming () =
  let c = C.create "t" in
  let bus = C.add_input_bus c "data" 4 in
  Alcotest.(check string) "lsb name" "data[0]" (C.net_name c bus.(0));
  Alcotest.(check string) "msb name" "data[3]" (C.net_name c bus.(3));
  C.mark_output_bus c bus "out";
  let found = C.find_output_bus c "out" in
  Alcotest.(check int) "bus width" 4 (Array.length found);
  Alcotest.(check bool)
    "missing bus raises" true
    (match C.find_output_bus c "nope" with
    | _ -> false
    | exception Not_found -> true)

let test_circuit_tie_sharing () =
  let c = C.create "t" in
  Alcotest.(check int) "tie0 shared" (C.tie0 c) (C.tie0 c);
  Alcotest.(check int) "tie1 shared" (C.tie1 c) (C.tie1 c);
  Alcotest.(check bool) "distinct polarities" true (C.tie0 c <> C.tie1 c)

let test_circuit_dff_init () =
  let c = C.create "t" in
  let d = C.add_input c "d" in
  let q1 = C.add_dff ~init:Logic.One c d in
  let q0 = C.add_dff c d in
  let id_of q = match C.driver c q with Some (i, _) -> i | None -> -1 in
  Alcotest.check value_t "init one" Logic.One (C.dff_init c (id_of q1));
  Alcotest.check value_t "default zero" Logic.Zero (C.dff_init c (id_of q0))

let test_circuit_rewire_validation () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Inv [| a |] in
  let id = match C.driver c y with Some (i, _) -> i | None -> -1 in
  Alcotest.(check bool)
    "bad slot rejected" true
    (match C.rewire_input c id 5 a with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "bad net rejected" true
    (match C.rewire_input c id 0 9999 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Check *)

let test_check_clean_circuit () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Inv [| a |] in
  C.mark_output c y "y";
  Alcotest.(check int) "no problems" 0 (List.length (Netlist.Check.run c))

let test_check_combinational_cycle () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let y1 = C.add_gate c Cell.Nand2 [| a; a |] in
  let y2 = C.add_gate c Cell.Nand2 [| y1; a |] in
  (* Close a combinational loop: y1's input becomes y2. *)
  (match C.driver c y1 with
  | Some (id, _) -> C.rewire_input c id 0 y2
  | None -> assert false);
  C.mark_output c y2 "y";
  let errors = Netlist.Check.errors c in
  Alcotest.(check bool)
    "cycle detected" true
    (List.exists
       (function Netlist.Check.Combinational_cycle _ -> true | _ -> false)
       errors);
  Alcotest.(check bool)
    "assert_well_formed raises" true
    (match Netlist.Check.assert_well_formed c with
    | () -> false
    | exception Failure _ -> true)

let test_check_dff_loop_is_fine () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let q = C.add_dff c a in
  let d = C.add_gate c Cell.Inv [| q |] in
  (match C.driver c q with
  | Some (id, _) -> C.rewire_input c id 0 d
  | None -> assert false);
  C.mark_output c q "q";
  Alcotest.(check int) "no fatal problems" 0 (List.length (Netlist.Check.errors c))

let test_check_dangling_output () =
  let c = C.create "t" in
  let a = C.add_input c "a" and b = C.add_input c "b" in
  (* Half adder whose carry is unused. *)
  (match C.add_cell c Cell.Half_adder [| a; b |] with
  | [| sum; _carry |] -> C.mark_output c sum "s"
  | _ -> assert false);
  let problems = Netlist.Check.run c in
  Alcotest.(check bool)
    "dangling reported" true
    (List.exists
       (function Netlist.Check.Dangling_output _ -> true | _ -> false)
       problems);
  (* ...but it is not fatal. *)
  Alcotest.(check int) "not an error" 0 (List.length (Netlist.Check.errors c))

(* Timing *)

let test_timing_inverter_chain () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let x1 = C.add_gate c Cell.Inv [| a |] in
  let x2 = C.add_gate c Cell.Inv [| x1 |] in
  let x3 = C.add_gate c Cell.Inv [| x2 |] in
  C.mark_output c x3 "y";
  check_close 1e-9 "three inverters" 3.0 (Netlist.Timing.logical_depth c)

let test_timing_dff_bounded () =
  (* in -> INV -> DFF -> INV -> out: paths are (input + INV -> DFF.D) and
     (DFF clk->q + INV -> output); depth = clk_to_q + 1. *)
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let x1 = C.add_gate c Cell.Inv [| a |] in
  let q = C.add_dff c x1 in
  let x2 = C.add_gate c Cell.Inv [| q |] in
  C.mark_output c x2 "y";
  check_close 1e-9 "register cuts the path" (Cell.clk_to_q +. 1.0)
    (Netlist.Timing.logical_depth c)

let test_timing_critical_path_trace () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let slow = C.add_gate c Cell.Xor2 [| a; a |] in
  let slow2 = C.add_gate c Cell.Xor2 [| slow; a |] in
  let fast = C.add_gate c Cell.Inv [| a |] in
  let y = C.add_gate c Cell.And2 [| slow2; fast |] in
  C.mark_output c y "y";
  let report = Netlist.Timing.analyze c in
  check_close 1e-9 "depth" (1.9 +. 1.9 +. 1.5) report.logical_depth;
  Alcotest.(check int) "path length" 3 (List.length report.critical_path)

let test_timing_histogram_and_spread () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let deep = C.add_gate c Cell.Inv [| a |] in
  let deep = C.add_gate c Cell.Inv [| deep |] in
  let deep = C.add_gate c Cell.Inv [| deep |] in
  let shallow = C.add_gate c Cell.Inv [| a |] in
  C.mark_output c deep "deep";
  C.mark_output c shallow "shallow";
  let hist = Netlist.Timing.path_histogram c ~bins:3 in
  Alcotest.(check int) "bins" 3 (Array.length hist);
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  Alcotest.(check int) "two endpoints" 2 total;
  let spread = Netlist.Timing.slack_spread c in
  Alcotest.(check bool) "spread in (0,1)" true (spread > 0.0 && spread < 1.0)

let test_timing_degenerate_single_gate () =
  (* One gate, one endpoint: the histogram holds exactly that endpoint in
     its top bin, the spread is 0 (median = max), and there is no
     multi-input gate to accumulate skew. *)
  let c = C.create "t" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_gate c Cell.Inv [| a |]) "y";
  let hist = Netlist.Timing.path_histogram c ~bins:4 in
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  Alcotest.(check int) "one endpoint" 1 total;
  Alcotest.(check int) "in the top bin" 1 (snd hist.(3));
  check_close 1e-9 "spread" 0.0 (Netlist.Timing.slack_spread c);
  check_close 1e-9 "skew" 0.0 (Netlist.Timing.input_skew c)

let test_timing_degenerate_equal_arrivals () =
  (* Two identical branches: every endpoint arrives together - balanced. *)
  let c = C.create "t" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_gate c Cell.Inv [| a |]) "y0";
  C.mark_output c (C.add_gate c Cell.Inv [| a |]) "y1";
  check_close 1e-9 "spread" 0.0 (Netlist.Timing.slack_spread c);
  let xor = C.add_gate c Cell.Xor2 [| a; a |] in
  C.mark_output c xor "y2";
  check_close 1e-9 "equal-arrival skew" 0.0 (Netlist.Timing.input_skew c)

let test_timing_degenerate_no_combinational () =
  (* Input straight into a register: all-zero arrivals on the input side
     must not divide by zero anywhere. *)
  let c = C.create "t" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_dff c a) "q";
  let hist = Netlist.Timing.path_histogram c ~bins:2 in
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  Alcotest.(check int) "dff D plus output" 2 total;
  let spread = Netlist.Timing.slack_spread c in
  Alcotest.(check bool) "spread finite" true
    (Float.is_finite spread && spread >= 0.0 && spread <= 1.0);
  check_close 1e-9 "skew" 0.0 (Netlist.Timing.input_skew c)

let test_timing_histogram_bad_bins () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  C.mark_output c (C.add_gate c Cell.Inv [| a |]) "y";
  Alcotest.check_raises "bins < 1"
    (Invalid_argument "Timing.path_histogram: bins < 1") (fun () ->
      ignore (Netlist.Timing.path_histogram c ~bins:0))

(* Stats *)

let test_stats_compute () =
  let c = C.create "t" in
  let a = C.add_input c "a" and b = C.add_input c "b" in
  let y = C.add_gate c Cell.And2 [| a; b |] in
  let q = C.add_dff c y in
  ignore (C.tie0 c);
  C.mark_output c q "q";
  let stats = Netlist.Stats.compute c in
  Alcotest.(check int) "ties excluded from N" 2 stats.cell_total;
  Alcotest.(check int) "one dff" 1 stats.dff_count;
  check_close 1e-9 "area" (Cell.area Cell.And2 +. Cell.area Cell.Dff) stats.area;
  check_close 1e-18 "avg cap"
    ((Cell.switched_cap Cell.And2 +. Cell.switched_cap Cell.Dff) /. 2.0)
    stats.avg_switched_cap;
  Alcotest.(check bool)
    "tie counted by kind" true
    (List.mem_assoc Cell.Tie0 stats.by_kind)

(* Placement *)

let test_placement_invariants () =
  let spec = Multipliers.Wallace.basic ~bits:8 in
  let p = Netlist.Placement.place spec.circuit in
  (* Every cell gets a distinct site. *)
  let seen = Hashtbl.create 64 in
  C.iter_cells
    (fun cell ->
      let pos = Netlist.Placement.position p cell.id in
      Alcotest.(check bool)
        (Printf.sprintf "cell %d site unique" cell.id)
        false (Hashtbl.mem seen pos);
      Hashtbl.add seen pos ())
    spec.circuit;
  Alcotest.(check bool)
    "wirelength positive" true
    (Netlist.Placement.total_wirelength p > 0.0)

let test_placement_deterministic () =
  let spec = Multipliers.Rca.basic ~bits:6 in
  let wl seed =
    Netlist.Placement.total_wirelength
      (Netlist.Placement.place ~seed spec.circuit)
  in
  check_close 1e-9 "same seed, same result" (wl 3) (wl 3)

let test_placement_improvement_helps () =
  let spec = Multipliers.Rca.basic ~bits:8 in
  let wl passes =
    Netlist.Placement.total_wirelength
      (Netlist.Placement.place ~seed:5 ~improvement_passes:passes spec.circuit)
  in
  Alcotest.(check bool)
    "greedy swaps never hurt" true
    (wl 3 <= wl 0 +. 1e-9)

let test_placement_single_pin_net () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Inv [| a |] in
  C.mark_output c y "y";
  let p = Netlist.Placement.place c in
  (* The output net has a driver but no cell sink: zero HPWL. *)
  check_close 1e-9 "dangling net" 0.0 (Netlist.Placement.net_length p y)

let test_placement_refined_stats () =
  let spec = Multipliers.Wallace.basic ~bits:8 in
  let p = Netlist.Placement.place spec.circuit in
  let r = Netlist.Placement.refine_stats spec.circuit p in
  Alcotest.(check bool)
    "wire share in (0, 0.6)" true
    (r.wire_cap_share > 0.0 && r.wire_cap_share < 0.6);
  Alcotest.(check bool)
    "refined C above cell-only C" true
    (r.avg_cap_with_wires > r.base.avg_switched_cap);
  Alcotest.(check bool) "net length sane" true
    (r.avg_net_length > 0.1 && r.avg_net_length < 1000.0)

(* Optimize *)

let test_optimize_folds_constants () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let zero = C.tie0 c in
  let y = C.add_gate c Cell.And2 [| a; zero |] in
  let z = C.add_gate c Cell.Or2 [| y; a |] in
  C.mark_output c z "z";
  let r = Netlist.Optimize.run c in
  (* AND(a,0) = 0, OR(0,a) = a: everything collapses to a wire. *)
  Alcotest.(check bool)
    "no logic cells left" true
    (List.for_all
       (fun (cell : C.cell) ->
         match cell.kind with Cell.Tie0 | Cell.Tie1 -> true | _ -> false)
       (C.cells r.circuit));
  Alcotest.(check int) "output aliases the input" (r.map a) (r.map z)

let test_optimize_xor_self_cancels () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Xor2 [| a; a |] in
  C.mark_output c y "y";
  let r = Netlist.Optimize.run c in
  let state = Oracles.Functional.initial r.circuit in
  let state =
    Oracles.Functional.set_inputs r.circuit state [ (r.map a, Logic.One) ]
  in
  Alcotest.(check bool)
    "XOR(a,a) folds to 0" true
    (Logic.equal (Oracles.Functional.value state (r.map y)) Logic.Zero)

let test_optimize_fa_downgrade () =
  let c = C.create "t" in
  let a = C.add_input c "a" and b = C.add_input c "b" in
  let zero = C.tie0 c in
  (match C.add_cell c Cell.Full_adder [| a; b; zero |] with
  | [| sum; carry |] ->
    C.mark_output c sum "s";
    C.mark_output c carry "co"
  | _ -> assert false);
  let r = Netlist.Optimize.run c in
  Alcotest.(check int) "one downgrade" 1 r.stats.downgraded;
  Alcotest.(check bool)
    "an HA remains" true
    (List.exists
       (fun (cell : C.cell) -> cell.kind = Cell.Half_adder)
       (C.cells r.circuit))

let test_optimize_removes_dead_logic () =
  let c = C.create "t" in
  let a = C.add_input c "a" in
  let y = C.add_gate c Cell.Inv [| a |] in
  let _dead = C.add_gate c Cell.Xor2 [| y; a |] in
  C.mark_output c y "y";
  let r = Netlist.Optimize.run c in
  Alcotest.(check int) "dead cell swept" 1 r.stats.removed_dead;
  Alcotest.(check bool)
    "only the inverter left" true
    (List.for_all
       (fun (cell : C.cell) ->
         match cell.kind with
         | Cell.Inv | Cell.Tie0 | Cell.Tie1 -> true
         | _ -> false)
       (C.cells r.circuit))

let test_optimize_preserves_sequential_behaviour () =
  let spec = Multipliers.Sequential.basic ~bits:6 in
  let optimized = Multipliers.Spec_optimize.run spec in
  let sim = Multipliers.Harness.fresh_simulator optimized in
  let rng = Numerics.Rng.create 41 in
  for _ = 1 to 8 do
    let x = Numerics.Rng.int rng 64 and y = Numerics.Rng.int rng 64 in
    Alcotest.(check int)
      (Printf.sprintf "%d*%d" x y)
      (x * y)
      (Multipliers.Harness.compute optimized sim x y)
  done

let prop_optimize_equivalent =
  QCheck.Test.make ~name:"optimised circuit is functionally equivalent"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Numerics.Rng.create (seed + 500) in
      let c = C.create "random" in
      let pool = ref (Array.to_list (C.add_input_bus c "in" 5)) in
      (* Sprinkle constants into the pool so folding has work to do. *)
      pool := C.tie0 c :: C.tie1 c :: !pool;
      let pick () = List.nth !pool (Numerics.Rng.int rng (List.length !pool)) in
      let kinds =
        [| Cell.Inv; Cell.Nand2; Cell.Nor2; Cell.And2; Cell.Or2; Cell.Xor2;
           Cell.Xnor2; Cell.Mux2; Cell.Half_adder; Cell.Full_adder |]
      in
      for _ = 1 to 30 do
        let kind = kinds.(Numerics.Rng.int rng (Array.length kinds)) in
        let ins = Array.init (Cell.arity kind) (fun _ -> pick ()) in
        Array.iter (fun n -> pool := n :: !pool) (C.add_cell c kind ins)
      done;
      let outputs =
        List.filteri (fun i _ -> i < 6) !pool
      in
      List.iteri (fun i n -> C.mark_output c n (Printf.sprintf "o%d" i)) outputs;
      let r = Netlist.Optimize.run c in
      let inputs = C.primary_inputs c in
      let ok = ref (r.stats.cells_after <= r.stats.cells_before) in
      for _ = 1 to 4 do
        let bindings =
          List.map (fun n -> (n, Logic.of_bool (Numerics.Rng.bool rng))) inputs
        in
        let reference =
          Oracles.Functional.set_inputs c
            (Oracles.Functional.initial c)
            bindings
        in
        let mapped_bindings =
          List.map (fun (n, v) -> (r.map n, v)) bindings
        in
        let optimised =
          Oracles.Functional.set_inputs r.circuit
            (Oracles.Functional.initial r.circuit)
            mapped_bindings
        in
        List.iter
          (fun n ->
            if
              not
                (Logic.equal
                   (Oracles.Functional.value reference n)
                   (Oracles.Functional.value optimised (r.map n)))
            then ok := false)
          outputs
      done;
      !ok)

(* Bdd *)

let bare_core core name bits =
  let c = C.create name in
  let a = C.add_input_bus c "a" bits in
  let b = C.add_input_bus c "b" bits in
  let p = core c ~a ~b in
  C.mark_output_bus c p "p";
  c

let test_bdd_basics () =
  let m = Netlist.Bdd.create () in
  let x = Netlist.Bdd.var m 0 and y = Netlist.Bdd.var m 1 in
  (* De Morgan. *)
  Alcotest.(check bool)
    "not(x and y) = not x or not y" true
    (Netlist.Bdd.equal
       (Netlist.Bdd.bdd_not m (Netlist.Bdd.bdd_and m x y))
       (Netlist.Bdd.bdd_or m (Netlist.Bdd.bdd_not m x) (Netlist.Bdd.bdd_not m y)));
  (* xor with self cancels. *)
  Alcotest.(check bool)
    "x xor x = false" true
    (Netlist.Bdd.equal (Netlist.Bdd.bdd_xor m x x) (Netlist.Bdd.bdd_false m));
  (* ite identity. *)
  Alcotest.(check bool)
    "ite(x, y, y) = y" true
    (Netlist.Bdd.equal (Netlist.Bdd.ite m x y y) y);
  (* eval agrees with semantics. *)
  let f = Netlist.Bdd.bdd_and m x (Netlist.Bdd.bdd_not m y) in
  Alcotest.(check bool) "eval 10" true
    (Netlist.Bdd.eval m f (fun i -> i = 0));
  Alcotest.(check bool) "eval 11" false
    (Netlist.Bdd.eval m f (fun _ -> true))

let test_bdd_multiplier_equivalence () =
  (* The formal counterpart of the sampled checks: all four cores compute
     the same function at 6 bits (fast; 8-bit runs in ~1 s and is covered
     by the CLI `prove` command). *)
  let bits = 6 in
  let rca = bare_core Multipliers.Rca.core "rca" bits in
  List.iter
    (fun (name, core) ->
      let other = bare_core core name bits in
      match Netlist.Bdd.check_equivalence rca other with
      | Netlist.Bdd.Equivalent -> ()
      | Netlist.Bdd.Inequivalent o ->
        Alcotest.fail (Printf.sprintf "%s differs from RCA at %s" name o)
      | Netlist.Bdd.Aborted -> Alcotest.fail (name ^ ": node limit"))
    [
      ("wallace", Multipliers.Wallace.core);
      ("dadda", Multipliers.Dadda.core);
      ("booth", Multipliers.Booth.core);
    ]

let test_bdd_detects_inequivalence () =
  let adder width carry_in =
    let c = C.create "add" in
    let a = C.add_input_bus c "a" width in
    let b = C.add_input_bus c "b" width in
    let cin = if carry_in then Some (C.tie1 c) else None in
    let sum, _ =
      match cin with
      | Some n -> Multipliers.Adders.ripple_carry c ~cin:n a b
      | None -> Multipliers.Adders.ripple_carry c a b
    in
    C.mark_output_bus c sum "s";
    c
  in
  match Netlist.Bdd.check_equivalence (adder 4 false) (adder 4 true) with
  | Netlist.Bdd.Inequivalent "s[0]" -> ()
  | Netlist.Bdd.Inequivalent o -> Alcotest.fail ("unexpected output: " ^ o)
  | Netlist.Bdd.Equivalent -> Alcotest.fail "a+b and a+b+1 cannot be equal"
  | Netlist.Bdd.Aborted -> Alcotest.fail "node limit"

let test_bdd_proves_optimizer_sound () =
  (* The clean-up pass, formally: optimised Wallace core == original. *)
  let original = bare_core Multipliers.Wallace.core "w" 6 in
  let optimized = (Netlist.Optimize.run original).circuit in
  match Netlist.Bdd.check_equivalence original optimized with
  | Netlist.Bdd.Equivalent -> ()
  | Netlist.Bdd.Inequivalent o -> Alcotest.fail ("optimizer broke " ^ o)
  | Netlist.Bdd.Aborted -> Alcotest.fail "node limit"

let test_bdd_interface_mismatch () =
  let a = bare_core Multipliers.Rca.core "a" 4 in
  let b = bare_core Multipliers.Rca.core "b" 6 in
  Alcotest.(check bool)
    "width mismatch rejected" true
    (match Netlist.Bdd.check_equivalence a b with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_bdd_node_limit () =
  let a = bare_core Multipliers.Rca.core "a" 8 in
  let b = bare_core Multipliers.Wallace.core "b" 8 in
  match Netlist.Bdd.check_equivalence ~max_nodes:500 a b with
  | Netlist.Bdd.Aborted -> ()
  | Netlist.Bdd.Equivalent | Netlist.Bdd.Inequivalent _ ->
    Alcotest.fail "expected abort under a tiny node budget"

(* Vec *)

let test_vec_basic () =
  let v = Netlist.Vec.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "push index" i (Netlist.Vec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Netlist.Vec.length v);
  Alcotest.(check int) "get" 42 (Netlist.Vec.get v 21);
  Netlist.Vec.set v 21 0;
  Alcotest.(check int) "set" 0 (Netlist.Vec.get v 21);
  Alcotest.(check int)
    "fold"
    (List.fold_left ( + ) 0 (Netlist.Vec.to_list v))
    (Netlist.Vec.fold_left ( + ) 0 v);
  Alcotest.(check bool)
    "bounds checked" true
    (match Netlist.Vec.get v 100 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "netlist"
    [
      ( "logic",
        [
          Alcotest.test_case "bool roundtrip" `Quick test_logic_bool_roundtrip;
          Alcotest.test_case "gates on booleans" `Quick test_logic_gates_on_booleans;
          Alcotest.test_case "X optimism" `Quick test_logic_x_optimism;
          Alcotest.test_case "full add exhaustive" `Quick test_logic_full_add_exhaustive;
          Alcotest.test_case "full add majority" `Quick
            test_logic_full_add_majority_optimism;
        ] );
      ( "cell",
        [
          Alcotest.test_case "shapes" `Quick test_cell_shapes;
          Alcotest.test_case "arity check" `Quick test_cell_eval_arity_check;
          Alcotest.test_case "delay bounds" `Quick test_cell_delay_bounds;
          Alcotest.test_case "FA matches logic" `Quick test_cell_fa_matches_logic;
          Alcotest.test_case "sequential flag" `Quick test_cell_sequential_flag;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "builder" `Quick test_circuit_builder;
          Alcotest.test_case "bus naming" `Quick test_circuit_bus_naming;
          Alcotest.test_case "tie sharing" `Quick test_circuit_tie_sharing;
          Alcotest.test_case "dff init" `Quick test_circuit_dff_init;
          Alcotest.test_case "rewire validation" `Quick test_circuit_rewire_validation;
        ] );
      ( "check",
        [
          Alcotest.test_case "clean circuit" `Quick test_check_clean_circuit;
          Alcotest.test_case "combinational cycle" `Quick test_check_combinational_cycle;
          Alcotest.test_case "dff loop ok" `Quick test_check_dff_loop_is_fine;
          Alcotest.test_case "dangling output" `Quick test_check_dangling_output;
        ] );
      ( "timing",
        [
          Alcotest.test_case "inverter chain" `Quick test_timing_inverter_chain;
          Alcotest.test_case "dff bounded" `Quick test_timing_dff_bounded;
          Alcotest.test_case "critical path trace" `Quick test_timing_critical_path_trace;
          Alcotest.test_case "histogram and spread" `Quick
            test_timing_histogram_and_spread;
          Alcotest.test_case "degenerate: single gate" `Quick
            test_timing_degenerate_single_gate;
          Alcotest.test_case "degenerate: equal arrivals" `Quick
            test_timing_degenerate_equal_arrivals;
          Alcotest.test_case "degenerate: no combinational" `Quick
            test_timing_degenerate_no_combinational;
          Alcotest.test_case "histogram rejects bins < 1" `Quick
            test_timing_histogram_bad_bins;
        ] );
      ("stats", [ Alcotest.test_case "compute" `Quick test_stats_compute ]);
      ( "placement",
        [
          Alcotest.test_case "invariants" `Quick test_placement_invariants;
          Alcotest.test_case "deterministic" `Quick test_placement_deterministic;
          Alcotest.test_case "improvement helps" `Quick
            test_placement_improvement_helps;
          Alcotest.test_case "single pin net" `Quick test_placement_single_pin_net;
          Alcotest.test_case "refined stats" `Quick test_placement_refined_stats;
        ] );
      ( "bdd",
        [
          Alcotest.test_case "boolean identities" `Quick test_bdd_basics;
          Alcotest.test_case "multiplier equivalence" `Slow
            test_bdd_multiplier_equivalence;
          Alcotest.test_case "detects inequivalence" `Quick
            test_bdd_detects_inequivalence;
          Alcotest.test_case "optimizer sound (formal)" `Quick
            test_bdd_proves_optimizer_sound;
          Alcotest.test_case "interface mismatch" `Quick test_bdd_interface_mismatch;
          Alcotest.test_case "node limit" `Quick test_bdd_node_limit;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "folds constants" `Quick test_optimize_folds_constants;
          Alcotest.test_case "xor self cancels" `Quick test_optimize_xor_self_cancels;
          Alcotest.test_case "FA downgrade" `Quick test_optimize_fa_downgrade;
          Alcotest.test_case "dead logic removed" `Quick
            test_optimize_removes_dead_logic;
          Alcotest.test_case "sequential preserved" `Slow
            test_optimize_preserves_sequential_behaviour;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_optimize_equivalent ] );
      ("vec", [ Alcotest.test_case "basic" `Quick test_vec_basic ]);
    ]
