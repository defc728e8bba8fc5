(* Event-driven simulator: queue ordering, propagation, inertial glitch
   handling, clocking, buses, activity extraction. *)

module C = Netlist.Circuit
module Cell = Netlist.Cell
module Logic = Netlist.Logic
module Sim = Logicsim.Simulator

let value_t =
  Alcotest.testable (fun ppf v -> Logic.pp ppf v) Logic.equal

(* Event_queue *)

let test_queue_ordering () =
  let q = Oracles.Event_queue.create () in
  Oracles.Event_queue.push q ~time:3.0 "c";
  Oracles.Event_queue.push q ~time:1.0 "a";
  Oracles.Event_queue.push q ~time:2.0 "b";
  let pop () =
    match Oracles.Event_queue.pop q with
    | Some (_, x) -> x
    | None -> Alcotest.fail "queue empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Oracles.Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Oracles.Event_queue.create () in
  List.iter (fun s -> Oracles.Event_queue.push q ~time:1.0 s) [ "x"; "y"; "z" ];
  let order =
    List.init 3 (fun _ ->
        match Oracles.Event_queue.pop q with
        | Some (_, s) -> s
        | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ] order

let test_queue_peek () =
  let q = Oracles.Event_queue.create () in
  Alcotest.(check (option (float 0.0))) "empty peek" None
    (Oracles.Event_queue.peek_time q);
  Oracles.Event_queue.push q ~time:5.0 ();
  Alcotest.(check (option (float 0.0))) "peek" (Some 5.0)
    (Oracles.Event_queue.peek_time q)

let prop_queue_sorts =
  QCheck.Test.make ~name:"pops are time-sorted" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 50) (float_range 0.0 100.0))
    (fun times ->
      let q = Oracles.Event_queue.create () in
      List.iter (fun t -> Oracles.Event_queue.push q ~time:t ()) times;
      let rec drain last =
        match Oracles.Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* Simulator *)

let inverter_chain n =
  let c = C.create "chain" in
  let a = C.add_input c "a" in
  let rec build net k = if k = 0 then net else build (C.add_gate c Cell.Inv [| net |]) (k - 1) in
  let y = build a n in
  C.mark_output c y "y";
  (c, a, y)

let test_propagation () =
  let c, a, y = inverter_chain 3 in
  let sim = Sim.create c in
  Sim.set_input sim a Logic.Zero;
  Sim.settle sim;
  Alcotest.check value_t "three inversions of 0" Logic.One (Sim.value sim y);
  Sim.set_input sim a Logic.One;
  Sim.settle sim;
  Alcotest.check value_t "three inversions of 1" Logic.Zero (Sim.value sim y)

let test_toggle_counting () =
  let c, a, _ = inverter_chain 2 in
  let sim = Sim.create c in
  Sim.set_input sim a Logic.Zero;
  Sim.settle sim;
  Sim.reset_toggles sim;
  Sim.set_input sim a Logic.One;
  Sim.settle sim;
  (* Both inverters toggle once. *)
  Alcotest.(check int) "two toggles" 2 (Sim.total_toggles sim);
  Sim.reset_toggles sim;
  Alcotest.(check int) "reset" 0 (Sim.total_toggles sim)

let test_set_input_validation () =
  let c, a, y = inverter_chain 1 in
  ignore a;
  let sim = Sim.create c in
  Alcotest.(check bool)
    "driving an internal net rejected" true
    (match Sim.set_input sim y Logic.One with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Glitch semantics: a -> XOR(a, INV(INV(a))) pulses when [a] toggles: the
   two XOR inputs change at different times (0 vs 2 inverter delays), and
   the 2.0-wide pulse survives the XOR's 1.9 inertial delay as a glitch. *)
let xor_glitch_circuit () =
  let c = C.create "glitch" in
  let a = C.add_input c "a" in
  let d1 = C.add_gate c Cell.Inv [| a |] in
  let d2 = C.add_gate c Cell.Inv [| d1 |] in
  let y = C.add_gate c Cell.Xor2 [| a; d2 |] in
  C.mark_output c y "y";
  (c, a, y)

let test_glitch_propagates () =
  let c, a, y = xor_glitch_circuit () in
  let sim = Sim.create c in
  Sim.set_input sim a Logic.Zero;
  Sim.settle sim;
  Alcotest.check value_t "steady low" Logic.Zero (Sim.value sim y);
  Sim.reset_toggles sim;
  Sim.set_input sim a Logic.One;
  Sim.settle sim;
  Alcotest.check value_t "back to low" Logic.Zero (Sim.value sim y);
  (* XOR output pulsed up and back down: 2 toggles, plus 2 inverters. *)
  let toggles = Sim.cell_toggles sim in
  let xor_id = match C.driver c y with Some (i, _) -> i | None -> -1 in
  Alcotest.(check int) "xor glitched" 2 toggles.(xor_id)

let test_short_pulse_swallowed () =
  (* Same structure but only ONE inverter between the reconvergent paths:
     skew 1.0 < XOR delay 1.9, so inertial filtering swallows the pulse. *)
  let c = C.create "pulse" in
  let a = C.add_input c "a" in
  let d1 = C.add_gate c Cell.Inv [| a |] in
  let y = C.add_gate c Cell.Xnor2 [| a; d1 |] in
  C.mark_output c y "y";
  let sim = Sim.create c in
  Sim.set_input sim a Logic.Zero;
  Sim.settle sim;
  Sim.reset_toggles sim;
  Sim.set_input sim a Logic.One;
  Sim.settle sim;
  let xor_id = match C.driver c y with Some (i, _) -> i | None -> -1 in
  Alcotest.(check int) "pulse swallowed" 0 (Sim.cell_toggles sim).(xor_id)

let test_dff_capture_and_init () =
  let c = C.create "reg" in
  let d = C.add_input c "d" in
  let q = C.add_dff ~init:Logic.One c d in
  C.mark_output c q "q";
  let sim = Sim.create c in
  Alcotest.check value_t "power-up value" Logic.One (Sim.value sim q);
  Sim.set_input sim d Logic.Zero;
  Sim.settle sim;
  Alcotest.check value_t "holds before clock" Logic.One (Sim.value sim q);
  Sim.clock_tick sim;
  Sim.settle sim;
  Alcotest.check value_t "captures on tick" Logic.Zero (Sim.value sim q)

let test_dff_chain_shifts () =
  let c = C.create "shift" in
  let d = C.add_input c "d" in
  let q1 = C.add_dff c d in
  let q2 = C.add_dff c q1 in
  C.mark_output c q2 "q2";
  let sim = Sim.create c in
  Sim.set_input sim d Logic.One;
  Sim.settle sim;
  Sim.clock_tick sim;
  Sim.settle sim;
  Alcotest.check value_t "one tick: not yet" Logic.Zero (Sim.value sim q2);
  Sim.clock_tick sim;
  Sim.settle sim;
  Alcotest.check value_t "two ticks: arrived" Logic.One (Sim.value sim q2)

let test_determinism () =
  let run () =
    let spec = Multipliers.Wallace.basic ~bits:8 in
    let sim = Sim.create spec.circuit in
    let rng = Numerics.Rng.create 17 in
    for _ = 1 to 10 do
      Logicsim.Bus.drive sim spec.a_bus (Numerics.Rng.int rng 256);
      Logicsim.Bus.drive sim spec.b_bus (Numerics.Rng.int rng 256);
      Sim.settle sim;
      Sim.clock_tick sim;
      Sim.settle sim
    done;
    (Sim.total_toggles sim, Sim.events_processed sim)
  in
  let t1, e1 = run () and t2, e2 = run () in
  Alcotest.(check int) "same toggles" t1 t2;
  Alcotest.(check int) "same events" e1 e2

(* Bus *)

let test_bus_roundtrip () =
  let values = Logicsim.Bus.to_values ~width:8 0xA5 in
  Alcotest.(check (option int)) "roundtrip" (Some 0xA5)
    (Logicsim.Bus.of_values values)

let test_bus_x_is_none () =
  let values = [| Logic.One; Logic.X |] in
  Alcotest.(check (option int)) "x bit" None (Logicsim.Bus.of_values values)

let test_bus_validation () =
  Alcotest.(check bool)
    "overflow rejected" true
    (match Logicsim.Bus.to_values ~width:4 16 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "negative rejected" true
    (match Logicsim.Bus.to_values ~width:4 (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_bus_roundtrip =
  QCheck.Test.make ~name:"bus to/of roundtrip" ~count:500
    QCheck.(int_range 0 65535)
    (fun v ->
      Logicsim.Bus.of_values (Logicsim.Bus.to_values ~width:16 v) = Some v)

(* Activity *)

let test_activity_bounds () =
  let spec = Multipliers.Wallace.basic ~bits:8 in
  let sim = Sim.create spec.circuit in
  let rng = Numerics.Rng.create 23 in
  let drive = Logicsim.Activity.random_drive ~rng ~buses:[ spec.a_bus; spec.b_bus ] in
  let r = Logicsim.Activity.measure ~warmup:2 ~cycles:30 ~drive sim in
  Alcotest.(check bool) "activity positive" true (r.activity > 0.0);
  Alcotest.(check bool) "activity sane" true (r.activity < 4.0);
  Alcotest.(check bool)
    "glitch ratio in [0,1)" true
    (r.glitch_ratio >= 0.0 && r.glitch_ratio < 1.0);
  Alcotest.(check int) "cycles recorded" 30 r.cycles;
  Alcotest.(check int)
    "per-cell length" (C.cell_count spec.circuit)
    (Array.length r.per_cell)

let test_activity_validation () =
  let c, a, _ = inverter_chain 1 in
  ignore a;
  let sim = Sim.create c in
  Alcotest.(check bool)
    "zero cycles rejected" true
    (match
       Logicsim.Activity.measure ~cycles:0 ~drive:(fun _ ~cycle:_ -> ()) sim
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_activity_constant_input_quiesces () =
  let c, a, _ = inverter_chain 4 in
  let sim = Sim.create c in
  Sim.set_input sim a Logic.One;
  Sim.settle sim;
  let drive sim ~cycle:_ = Sim.set_input sim a Logic.One in
  let r = Logicsim.Activity.measure ~warmup:1 ~cycles:10 ~drive sim in
  Alcotest.(check (float 1e-9)) "no switching" 0.0 r.activity

(* Faults *)

let and_gate_circuit () =
  let c = C.create "and" in
  let a = C.add_input c "a" and b = C.add_input c "b" in
  let y = C.add_gate c Cell.And2 [| a; b |] in
  C.mark_output c y "y";
  (c, a, b, y)

let test_faults_enumerate () =
  let c, _, _, _ = and_gate_circuit () in
  (* 3 nets (a, b, y) x 2 polarities. *)
  Alcotest.(check int) "six faults" 6 (List.length (Logicsim.Faults.enumerate c))

let test_faults_detection_logic () =
  let c, a, b, y = and_gate_circuit () in
  (* Vector (1,1) detects y stuck-at-0; vector (0,1) detects a stuck-at-1. *)
  let vec11 = [ (a, Logic.One); (b, Logic.One) ] in
  let vec01 = [ (a, Logic.Zero); (b, Logic.One) ] in
  let outputs = [ y ] in
  let detected fault vectors =
    let cov =
      Logicsim.Faults.coverage c ~faults:[ fault ] ~vectors ~outputs
    in
    cov.detected = 1
  in
  Alcotest.(check bool) "sa0 on y found by 11" true
    (detected { Logicsim.Faults.net = y; polarity = Logicsim.Faults.Stuck_at_0 } [ vec11 ]);
  Alcotest.(check bool) "sa0 on y missed by 01" false
    (detected { Logicsim.Faults.net = y; polarity = Logicsim.Faults.Stuck_at_0 } [ vec01 ]);
  Alcotest.(check bool) "sa1 on a found by 01" true
    (detected { Logicsim.Faults.net = a; polarity = Logicsim.Faults.Stuck_at_1 } [ vec01 ])

let test_faults_full_coverage_and_gate () =
  let c, a, b, y = and_gate_circuit () in
  (* The classic minimal AND test set {11, 01, 10} covers all six faults. *)
  let vectors =
    [
      [ (a, Logic.One); (b, Logic.One) ];
      [ (a, Logic.Zero); (b, Logic.One) ];
      [ (a, Logic.One); (b, Logic.Zero) ];
    ]
  in
  let cov = Logicsim.Faults.coverage c ~vectors ~outputs:[ y ] in
  Alcotest.(check (float 1e-9)) "100%" 100.0 cov.coverage_pct

let test_faults_undetectable_redundancy () =
  (* y = OR(a, AND(a, b)) absorbs the AND: its output stuck-at-0 is
     undetectable — a textbook redundant fault. *)
  let c = C.create "redundant" in
  let a = C.add_input c "a" and b = C.add_input c "b" in
  let inner = C.add_gate c Cell.And2 [| a; b |] in
  let y = C.add_gate c Cell.Or2 [| a; inner |] in
  C.mark_output c y "y";
  let all_vectors =
    List.concat_map
      (fun va -> List.map (fun vb -> [ (a, va); (b, vb) ]) [ Logic.Zero; Logic.One ])
      [ Logic.Zero; Logic.One ]
  in
  let cov =
    Logicsim.Faults.coverage c
      ~faults:[ { Logicsim.Faults.net = inner; polarity = Logicsim.Faults.Stuck_at_0 } ]
      ~vectors:all_vectors ~outputs:[ y ]
  in
  Alcotest.(check int) "redundant fault undetected" 0 cov.detected

let test_faults_coverage_grows_with_vectors () =
  let c = C.create "w4" in
  let a = C.add_input_bus c "a" 4 in
  let b = C.add_input_bus c "b" 4 in
  let p = Multipliers.Wallace.core c ~a ~b in
  C.mark_output_bus c p "p";
  let outputs = Array.to_list p in
  let cov count seed =
    let rng = Numerics.Rng.create seed in
    let vectors = Logicsim.Faults.random_vectors ~rng ~circuit:c ~count in
    (Logicsim.Faults.coverage c ~vectors ~outputs).coverage_pct
  in
  Alcotest.(check bool) "more vectors, no less coverage" true
    (cov 16 3 >= cov 2 3);
  Alcotest.(check bool) "16 vectors reach > 60%" true (cov 16 3 > 60.0)

let test_faults_reject_sequential () =
  let c = C.create "seq" in
  let d = C.add_input c "d" in
  let q = C.add_dff c d in
  C.mark_output c q "q";
  Alcotest.(check bool)
    "sequential rejected" true
    (match Logicsim.Faults.enumerate c with
    | _ -> false
    | exception Failure _ -> true)

(* Unboxed heap — the struct-of-arrays core both kernels schedule through;
   same contract as Event_queue, so the same ordering tests apply. *)

module Uheap = Logicsim.Unboxed_heap

let test_uheap_ordering () =
  let h = Uheap.create () in
  Uheap.push h ~time:3.0 ~a:30 ~b:300;
  Uheap.push h ~time:1.0 ~a:10 ~b:100;
  Uheap.push h ~time:2.0 ~a:20 ~b:200;
  let pop () =
    if not (Uheap.pop h) then Alcotest.fail "heap empty";
    (Uheap.top_time h, Uheap.top_a h, Uheap.top_b h)
  in
  Alcotest.(check (triple (float 0.0) int int)) "first" (1.0, 10, 100) (pop ());
  Alcotest.(check (triple (float 0.0) int int)) "second" (2.0, 20, 200) (pop ());
  Alcotest.(check (triple (float 0.0) int int)) "third" (3.0, 30, 300) (pop ());
  Alcotest.(check bool) "empty" true (Uheap.is_empty h);
  Alcotest.(check bool) "pop on empty" false (Uheap.pop h)

let test_uheap_fifo_ties () =
  let h = Uheap.create () in
  List.iter (fun k -> Uheap.push h ~time:1.0 ~a:k ~b:0) [ 0; 1; 2 ];
  let order =
    List.init 3 (fun _ ->
        if Uheap.pop h then Uheap.top_a h else -1)
  in
  Alcotest.(check (list int)) "insertion order on ties" [ 0; 1; 2 ] order

let test_uheap_peek_clear () =
  let h = Uheap.create () in
  Alcotest.(check (option (float 0.0))) "empty peek" None (Uheap.peek_time h);
  Uheap.push h ~time:5.0 ~a:1 ~b:2;
  Uheap.push h ~time:4.0 ~a:3 ~b:4;
  Alcotest.(check (option (float 0.0))) "peek" (Some 4.0) (Uheap.peek_time h);
  Alcotest.(check int) "length" 2 (Uheap.length h);
  Uheap.clear h;
  Alcotest.(check bool) "cleared" true (Uheap.is_empty h);
  (* The tie-break counter resets too: fresh pushes pop in fresh order. *)
  Uheap.push h ~time:1.0 ~a:7 ~b:0;
  Alcotest.(check bool) "usable after clear" true (Uheap.pop h);
  Alcotest.(check int) "payload survives" 7 (Uheap.top_a h)

let prop_uheap_sorted =
  QCheck.Test.make ~name:"unboxed heap pops time-sorted, ties FIFO" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 9))
    (fun raw ->
      (* Coarse integer times force plenty of ties. *)
      let h = Uheap.create () in
      List.iteri
        (fun i t -> Uheap.push h ~time:(float_of_int t) ~a:i ~b:(i * 2))
        raw;
      let rec drain last_time last_a =
        if not (Uheap.pop h) then true
        else begin
          let t = Uheap.top_time h and a = Uheap.top_a h in
          if t < last_time then false
          else if t = last_time && a <= last_a then false
          else drain t a
        end
      in
      drain neg_infinity (-1))

(* Differential: the compiled kernel must match the boxed reference kernel
   bit for bit — settled values, per-cell toggles, committed events, time —
   on every architecture of the catalog under identical stimulus. *)

module Ref = Oracles.Reference
module Compiled = Logicsim.Compiled
module Bitpar = Logicsim.Bitpar

let drive_ref_bus r bus value =
  Array.iteri
    (fun i net ->
      Ref.set_input r net (Logic.of_bool ((value lsr i) land 1 = 1)))
    bus

let differential_arch label () =
  let spec = Multipliers.Catalog.build label in
  let sim = Sim.create spec.Multipliers.Spec.circuit in
  let r = Ref.create spec.Multipliers.Spec.circuit in
  let rng_c = Numerics.Rng.create 1009 and rng_r = Numerics.Rng.create 1009 in
  let bound = 1 lsl spec.Multipliers.Spec.bits in
  for _cycle = 1 to 3 do
    let xc = Numerics.Rng.int rng_c bound and yc = Numerics.Rng.int rng_c bound in
    Logicsim.Bus.drive sim spec.Multipliers.Spec.a_bus xc;
    Logicsim.Bus.drive sim spec.Multipliers.Spec.b_bus yc;
    Sim.settle sim;
    let xr = Numerics.Rng.int rng_r bound and yr = Numerics.Rng.int rng_r bound in
    drive_ref_bus r spec.Multipliers.Spec.a_bus xr;
    drive_ref_bus r spec.Multipliers.Spec.b_bus yr;
    Ref.settle r;
    for _ = 1 to spec.Multipliers.Spec.ticks_per_cycle do
      Sim.clock_tick sim;
      Sim.settle sim;
      Ref.clock_tick r;
      Ref.settle r
    done
  done;
  Alcotest.(check int)
    "committed events" (Ref.events_processed r) (Sim.events_processed sim);
  Alcotest.(check int)
    "total toggles" (Ref.total_toggles r) (Sim.total_toggles sim);
  Alcotest.(check (float 0.0)) "simulation time" (Ref.now r) (Sim.now sim);
  Alcotest.(check (array int))
    "per-cell toggles" (Ref.cell_toggles r) (Sim.cell_toggles sim);
  Alcotest.(check (array value_t))
    "settled net values" (Ref.snapshot_values r) (Sim.snapshot_values sim)

(* Glitch-ratio differential: Activity.measure (incremental dirty-set
   accounting on the compiled kernel) against a straight transcription of
   the original algorithm — full value snapshots and a full-circuit scan
   per cycle — running on the reference kernel. *)

let reference_activity ~warmup ~ticks_per_cycle ~cycles ~seed
    (spec : Multipliers.Spec.t) =
  let r = Ref.create spec.circuit in
  let rng = Numerics.Rng.create seed in
  let drive () =
    List.iter
      (fun bus ->
        let width = Array.length bus in
        let bound = if width >= 62 then max_int else 1 lsl width in
        drive_ref_bus r bus (Numerics.Rng.int rng bound))
      [ spec.a_bus; spec.b_bus ]
  in
  let run_cycle () =
    drive ();
    Ref.settle r;
    for _ = 1 to ticks_per_cycle do
      Ref.clock_tick r;
      Ref.settle r
    done
  in
  let necessary ~before ~after =
    let count = ref 0 in
    C.iter_cells
      (fun cell ->
        Array.iter
          (fun net ->
            match (before.(net), after.(net)) with
            | Logic.Zero, Logic.One | Logic.One, Logic.Zero -> incr count
            | (Logic.Zero | Logic.One | Logic.X), _ -> ())
          cell.outputs)
      spec.circuit
  ;
    !count
  in
  for _ = 1 to warmup do
    run_cycle ()
  done;
  Ref.reset_toggles r;
  let necessary_total = ref 0 in
  let before = ref (Ref.snapshot_values r) in
  for _ = 1 to cycles do
    run_cycle ();
    let after = Ref.snapshot_values r in
    necessary_total := !necessary_total + necessary ~before:!before ~after;
    before := after
  done;
  let total = Ref.total_toggles r in
  let n =
    C.fold_cells
      (fun acc cell ->
        match cell.kind with
        | Cell.Tie0 | Cell.Tie1 -> acc
        | _ -> acc + 1)
      0 spec.circuit
  in
  let glitch_ratio =
    if total = 0 then 0.0
    else
      Float.max 0.0
        (float_of_int (total - !necessary_total) /. float_of_int total)
  in
  (* Same association as Activity.measure: (total / cycles) / n. *)
  (float_of_int total /. float_of_int cycles /. float_of_int (max 1 n),
   glitch_ratio)

let compiled_activity ~warmup ~ticks_per_cycle ~cycles ~seed
    (spec : Multipliers.Spec.t) =
  let sim = Sim.create spec.circuit in
  let rng = Numerics.Rng.create seed in
  let drive =
    Logicsim.Activity.random_drive ~rng ~buses:[ spec.a_bus; spec.b_bus ]
  in
  let r =
    Logicsim.Activity.measure ~warmup ~ticks_per_cycle ~cycles ~drive sim
  in
  (r.activity, r.glitch_ratio)

let test_glitch_ratio_differential_sequential () =
  (* Registered I/O makes this a sequential circuit: exercises the
     incremental dirty-set path. *)
  let spec = Multipliers.Catalog.build "RCA" in
  let act_ref, glitch_ref =
    reference_activity ~warmup:2 ~ticks_per_cycle:spec.ticks_per_cycle
      ~cycles:4 ~seed:77 spec
  in
  let act_c, glitch_c =
    compiled_activity ~warmup:2 ~ticks_per_cycle:spec.ticks_per_cycle
      ~cycles:4 ~seed:77 spec
  in
  Alcotest.(check (float 0.0)) "activity bitwise" act_ref act_c;
  Alcotest.(check (float 0.0)) "glitch ratio bitwise" glitch_ref glitch_c

let test_glitch_ratio_differential_multitick () =
  (* A sequential-style architecture with an internal clock multiple. *)
  let spec = Multipliers.Catalog.build "Sequential" in
  let act_ref, glitch_ref =
    reference_activity ~warmup:1 ~ticks_per_cycle:spec.ticks_per_cycle
      ~cycles:3 ~seed:31 spec
  in
  let act_c, glitch_c =
    compiled_activity ~warmup:1 ~ticks_per_cycle:spec.ticks_per_cycle
      ~cycles:3 ~seed:31 spec
  in
  Alcotest.(check (float 0.0)) "activity bitwise" act_ref act_c;
  Alcotest.(check (float 0.0)) "glitch ratio bitwise" glitch_ref glitch_c

(* Bit-parallel engine *)

let wallace_core_circuit bits =
  let c = C.create "wcore" in
  let a = C.add_input_bus c "a" bits in
  let b = C.add_input_bus c "b" bits in
  let p = Multipliers.Wallace.core c ~a ~b in
  C.mark_output_bus c p "p";
  (c, a, b, p)

let test_bitpar_matches_event_sim () =
  (* 63 lanes of random three-valued input vectors (lane 0 left at
     power-up X) must settle to exactly the event kernel's values. *)
  let c, a, b, _ = wallace_core_circuit 4 in
  let inputs = Array.append a b in
  let st = Compiled.compile c in
  let bp = Bitpar.create st in
  let rng = Numerics.Rng.create 91 in
  let vectors =
    Array.init Bitpar.lanes (fun lane ->
        if lane = 0 then [||]
        else
          Array.map
            (fun net ->
              let r = Numerics.Rng.int rng 4 in
              let v = if r = 3 then Logic.X else Logic.of_bool (r land 1 = 1) in
              (net, v))
            inputs)
  in
  Array.iteri
    (fun lane vec ->
      Array.iter (fun (net, v) -> Bitpar.set_input bp ~net ~lane v) vec)
    vectors;
  Bitpar.run bp;
  let mismatches = ref 0 in
  Array.iteri
    (fun lane vec ->
      let sim = Sim.create c in
      Array.iter (fun (net, v) -> Sim.set_input sim net v) vec;
      Sim.settle sim;
      for net = 0 to C.net_count c - 1 do
        if not (Logic.equal (Sim.value sim net) (Bitpar.value bp ~net ~lane))
        then incr mismatches
      done)
    vectors;
  Alcotest.(check int) "all lanes, all nets agree" 0 !mismatches

let test_bitpar_adjacent_necessary () =
  (* Packing consecutive cycles into adjacent lanes reproduces the
     event-kernel necessary-transition count. *)
  let c, a, b, _ = wallace_core_circuit 4 in
  let st = Compiled.compile c in
  let bp = Bitpar.create st in
  let sim = Sim.create c in
  let rng = Numerics.Rng.create 57 in
  (* Lane 0 carries the power-up settled state. *)
  Array.iter
    (fun net -> Bitpar.set_input bp ~net ~lane:0 (Sim.value sim net))
    (Array.append a b);
  let cycles = 20 in
  let expected = ref 0 in
  let before = ref (Sim.snapshot_values sim) in
  for cycle = 1 to cycles do
    let xa = Numerics.Rng.int rng 16 and xb = Numerics.Rng.int rng 16 in
    Logicsim.Bus.drive sim a xa;
    Logicsim.Bus.drive sim b xb;
    Sim.settle sim;
    let after = Sim.snapshot_values sim in
    C.iter_cells
      (fun cell ->
        Array.iter
          (fun net ->
            match (!before.(net), after.(net)) with
            | Logic.Zero, Logic.One | Logic.One, Logic.Zero -> incr expected
            | (Logic.Zero | Logic.One | Logic.X), _ -> ())
          cell.outputs)
      c;
    before := after;
    Array.iteri
      (fun i net ->
        Bitpar.set_input bp ~net ~lane:cycle
          (Logic.of_bool ((xa lsr i) land 1 = 1)))
      a;
    Array.iteri
      (fun i net ->
        Bitpar.set_input bp ~net ~lane:cycle
          (Logic.of_bool ((xb lsr i) land 1 = 1)))
      b
  done;
  Bitpar.run bp;
  Alcotest.(check int)
    "necessary transitions" !expected
    (Bitpar.adjacent_necessary bp ~pairs:cycles)

let test_activity_batched_matches_reference () =
  (* A DFF-free circuit takes the bit-parallel accounting path; 150 cycles
     spans three 62-cycle batches including the carry-over lane. *)
  let c, a, b, _ = wallace_core_circuit 4 in
  let measure_compiled () =
    let sim = Sim.create c in
    let rng = Numerics.Rng.create 8 in
    let drive = Logicsim.Activity.random_drive ~rng ~buses:[ a; b ] in
    let r = Logicsim.Activity.measure ~warmup:2 ~cycles:150 ~drive sim in
    (r.activity, r.glitch_ratio)
  in
  let measure_reference () =
    let r = Ref.create c in
    let rng = Numerics.Rng.create 8 in
    let drive () =
      List.iter
        (fun bus ->
          let width = Array.length bus in
          let bound = if width >= 62 then max_int else 1 lsl width in
          drive_ref_bus r bus (Numerics.Rng.int rng bound))
        [ a; b ]
    in
    let run_cycle () =
      drive ();
      Ref.settle r;
      Ref.clock_tick r;
      Ref.settle r
    in
    for _ = 1 to 2 do
      run_cycle ()
    done;
    Ref.reset_toggles r;
    let necessary_total = ref 0 in
    let before = ref (Ref.snapshot_values r) in
    for _ = 1 to 150 do
      run_cycle ();
      let after = Ref.snapshot_values r in
      C.iter_cells
        (fun cell ->
          Array.iter
            (fun net ->
              match (!before.(net), after.(net)) with
              | Logic.Zero, Logic.One | Logic.One, Logic.Zero ->
                incr necessary_total
              | (Logic.Zero | Logic.One | Logic.X), _ -> ())
            cell.outputs)
        c;
      before := after
    done;
    let total = Ref.total_toggles r in
    let n =
      C.fold_cells
        (fun acc cell ->
          match cell.kind with
          | Cell.Tie0 | Cell.Tie1 -> acc
          | _ -> acc + 1)
        0 c
    in
    ( float_of_int total /. 150.0 /. float_of_int (max 1 n),
      if total = 0 then 0.0
      else
        Float.max 0.0
          (float_of_int (total - !necessary_total) /. float_of_int total) )
  in
  let act_c, glitch_c = measure_compiled () in
  let act_r, glitch_r = measure_reference () in
  Alcotest.(check (float 0.0)) "activity bitwise" act_r act_c;
  Alcotest.(check (float 0.0)) "glitch ratio bitwise" glitch_r glitch_c

let test_bitpar_fault_coverage_matches_scalar () =
  (* The chunked bit-parallel coverage must flag exactly the faults the
     per-vector zero-delay evaluation flags. *)
  let c, _, _, p = wallace_core_circuit 4 in
  let outputs = Array.to_list p in
  let rng = Numerics.Rng.create 12 in
  let vectors = Logicsim.Faults.random_vectors ~rng ~circuit:c ~count:12 in
  let faults = Logicsim.Faults.enumerate c in
  let cov = Logicsim.Faults.coverage c ~faults ~vectors ~outputs in
  (* Scalar re-implementation of detection, one vector at a time. *)
  let golden =
    List.map
      (fun inputs ->
        let nets = Logicsim.Faults.evaluate_with_fault c ~fault:None ~inputs in
        (inputs, List.map (fun n -> nets.(n)) outputs))
      vectors
  in
  let scalar_detected fault =
    List.exists
      (fun (inputs, expected) ->
        let nets =
          Logicsim.Faults.evaluate_with_fault c ~fault:(Some fault) ~inputs
        in
        List.exists2
          (fun n reference -> not (Logic.equal nets.(n) reference))
          outputs expected)
      golden
  in
  let scalar_undetected = List.filter (fun f -> not (scalar_detected f)) faults in
  Alcotest.(check int)
    "same undetected count"
    (List.length scalar_undetected)
    (List.length cov.undetected);
  Alcotest.(check bool)
    "same undetected faults" true
    (List.for_all2
       (fun (f1 : Logicsim.Faults.fault) (f2 : Logicsim.Faults.fault) ->
         f1.net = f2.net && f1.polarity = f2.polarity)
       scalar_undetected cov.undetected)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "logicsim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "peek" `Quick test_queue_peek;
        ]
        @ qsuite [ prop_queue_sorts ] );
      ( "unboxed_heap",
        [
          Alcotest.test_case "ordering" `Quick test_uheap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_uheap_fifo_ties;
          Alcotest.test_case "peek/clear" `Quick test_uheap_peek_clear;
        ]
        @ qsuite [ prop_uheap_sorted ] );
      ( "simulator",
        [
          Alcotest.test_case "propagation" `Quick test_propagation;
          Alcotest.test_case "toggle counting" `Quick test_toggle_counting;
          Alcotest.test_case "input validation" `Quick test_set_input_validation;
          Alcotest.test_case "glitch propagates" `Quick test_glitch_propagates;
          Alcotest.test_case "short pulse swallowed" `Quick test_short_pulse_swallowed;
          Alcotest.test_case "dff capture/init" `Quick test_dff_capture_and_init;
          Alcotest.test_case "dff chain shifts" `Quick test_dff_chain_shifts;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "bus",
        [
          Alcotest.test_case "roundtrip" `Quick test_bus_roundtrip;
          Alcotest.test_case "x is none" `Quick test_bus_x_is_none;
          Alcotest.test_case "validation" `Quick test_bus_validation;
        ]
        @ qsuite [ prop_bus_roundtrip ] );
      ( "activity",
        [
          Alcotest.test_case "bounds" `Quick test_activity_bounds;
          Alcotest.test_case "validation" `Quick test_activity_validation;
          Alcotest.test_case "constant input quiesces" `Quick
            test_activity_constant_input_quiesces;
        ] );
      ( "faults",
        [
          Alcotest.test_case "enumerate" `Quick test_faults_enumerate;
          Alcotest.test_case "detection logic" `Quick test_faults_detection_logic;
          Alcotest.test_case "full coverage AND" `Quick
            test_faults_full_coverage_and_gate;
          Alcotest.test_case "undetectable redundancy" `Quick
            test_faults_undetectable_redundancy;
          Alcotest.test_case "coverage grows" `Quick
            test_faults_coverage_grows_with_vectors;
          Alcotest.test_case "rejects sequential" `Quick test_faults_reject_sequential;
        ] );
      ( "differential",
        List.map
          (fun (e : Multipliers.Catalog.entry) ->
            Alcotest.test_case e.label `Quick (differential_arch e.label))
          Multipliers.Catalog.entries
        @ [
            Alcotest.test_case "glitch ratio RCA" `Quick
              test_glitch_ratio_differential_sequential;
            Alcotest.test_case "glitch ratio Sequential" `Quick
              test_glitch_ratio_differential_multitick;
          ] );
      ( "bitpar",
        [
          Alcotest.test_case "matches event sim" `Quick
            test_bitpar_matches_event_sim;
          Alcotest.test_case "adjacent necessary" `Quick
            test_bitpar_adjacent_necessary;
          Alcotest.test_case "batched activity" `Quick
            test_activity_batched_matches_reference;
          Alcotest.test_case "fault coverage" `Quick
            test_bitpar_fault_coverage_matches_scalar;
        ] );
    ]
