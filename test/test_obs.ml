(* The observability layer: recording semantics (spans, counters,
   histograms, reset, exception safety), the disabled-is-a-no-op contract,
   and the determinism guarantees — normalized profiles and merged counters
   byte-identical at any pool size, and tracing never perturbing the
   bitwise-deterministic Monte Carlo streams. *)

module Pool = Parallel.Pool

(* Every test runs with a clean slate and leaves the subsystem disabled for
   whichever test (or other binary in the same run) comes next. *)
let with_recording f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect f ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())

let with_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %S" what needle)
    true (contains haystack needle)

(* Recording semantics *)

let test_counters_merge_across_domains () =
  let c = Obs.Counter.make "test.obs.merged" in
  with_recording @@ fun () ->
  with_jobs 4 (fun () ->
      ignore (Pool.map (fun _ -> Obs.Counter.incr c) (List.init 97 Fun.id)));
  Alcotest.(check int)
    "97 increments survive the merge" 97
    (List.assoc "test.obs.merged" (Obs.counters ()))

let test_counter_add_and_zero_omitted () =
  let c = Obs.Counter.make "test.obs.add" in
  let z = Obs.Counter.make "test.obs.zero" in
  ignore z;
  with_recording @@ fun () ->
  Obs.Counter.add c 5;
  Obs.Counter.add c 7;
  let merged = Obs.counters () in
  Alcotest.(check int) "5+7" 12 (List.assoc "test.obs.add" merged);
  Alcotest.(check bool)
    "zero counters omitted" false
    (List.mem_assoc "test.obs.zero" merged)

let test_histogram_summary () =
  let h = Obs.Hist.make "test.obs.hist" in
  with_recording @@ fun () ->
  List.iter (Obs.Hist.observe h) [ 3.0; 1.0; 2.0 ];
  let s = List.assoc "test.obs.hist" (Obs.histograms ()) in
  Alcotest.(check int) "count" 3 s.Obs.h_count;
  Alcotest.(check (float 1e-12)) "sum" 6.0 s.Obs.h_sum;
  Alcotest.(check (float 1e-12)) "min" 1.0 s.Obs.h_min;
  Alcotest.(check (float 1e-12)) "max" 3.0 s.Obs.h_max

let test_span_nesting_in_profile () =
  with_recording @@ fun () ->
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"inner" (fun () -> ());
      Obs.Span.with_ ~name:"inner" (fun () -> ()));
  let profile = Obs.Report.profile ~normalize:true () in
  check_contains "profile" profile "\nouter";
  check_contains "profile" profile "\n  inner"

let test_span_ctx_reparents () =
  with_recording @@ fun () ->
  let ctx = Obs.Span.with_ ~name:"parent" (fun () -> Obs.Span.current ()) in
  (* A span recorded on a "bare" context but under the captured ctx must
     aggregate below the parent, exactly as the pool re-installs contexts
     on its worker domains. *)
  Obs.Span.with_ctx ctx (fun () -> Obs.Span.with_ ~name:"child" (fun () -> ()));
  let profile = Obs.Report.profile ~normalize:true () in
  check_contains "profile" profile "\n  child"

let test_span_recorded_on_exception () =
  with_recording @@ fun () ->
  (try Obs.Span.with_ ~name:"raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  (* The span must be recorded and the stack popped: a sibling span after
     the exception still lands at the root. *)
  Obs.Span.with_ ~name:"after" (fun () -> ());
  let profile = Obs.Report.profile ~normalize:true () in
  (* Both land at the root: at the start of a line, unindented. *)
  check_contains "profile" profile "\nraises";
  check_contains "profile" profile "\nafter"

let test_reset_drops_everything () =
  let c = Obs.Counter.make "test.obs.reset" in
  with_recording @@ fun () ->
  Obs.Counter.incr c;
  Obs.Span.with_ ~name:"gone" (fun () -> ());
  Obs.reset ();
  Alcotest.(check (list (pair string int))) "no counters" [] (Obs.counters ());
  Alcotest.(check bool)
    "no spans" false
    (contains (Obs.Report.profile ()) "gone")

let test_disabled_records_nothing () =
  let c = Obs.Counter.make "test.obs.disabled" in
  Obs.set_enabled false;
  Obs.reset ();
  Obs.Counter.incr c;
  Obs.Span.with_ ~name:"invisible" (fun () -> ());
  Alcotest.(check (list (pair string int)))
    "counters empty" [] (Obs.counters ());
  Alcotest.(check bool)
    "span not recorded" false
    (contains (Obs.Report.profile ()) "invisible")

let json_t =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Json.to_string j))
    Json.equal

let test_chrome_trace_shape () =
  with_recording @@ fun () ->
  Obs.Span.with_ ~name:"traced"
    ~attrs:[ ("k", "v\"quoted\""); ("ctl", "a\001b") ]
    (fun () -> ());
  let trace =
    match Json.parse (Obs.Report.chrome_trace ()) with
    | Ok trace -> trace
    | Error msg -> Alcotest.failf "trace is not JSON: %s" msg
  in
  let events =
    match Json.member "traceEvents" trace with
    | Some (Json.Arr events) -> events
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  let is_traced e =
    Json.member "name" e = Some (Json.Str "traced")
    && Json.member "ph" e = Some (Json.Str "X")
  in
  match List.find_opt is_traced events with
  | None -> Alcotest.fail "no X event named traced"
  | Some e ->
    let arg k = Option.bind (Json.member "args" e) (Json.member k) in
    Alcotest.(check (option json_t))
      "quoted attribute" (Some (Json.Str "v\"quoted\"")) (arg "k");
    Alcotest.(check (option json_t))
      "control-character attribute" (Some (Json.Str "a\001b")) (arg "ctl")

(* Determinism: the normalized profile and the merged counters are
   byte-identical whatever the pool size. *)

let capture_table1 jobs =
  with_recording @@ fun () ->
  with_jobs jobs (fun () -> ignore (Report.Experiments.table1 ()));
  (Obs.Report.profile ~normalize:true (), Obs.counters ~normalize:true ())

let test_normalized_profile_jobs_independent () =
  let profile1, counters1 = capture_table1 1 in
  let profile4, counters4 = capture_table1 4 in
  Alcotest.(check string) "profile byte-identical" profile1 profile4;
  Alcotest.(check (list (pair string int)))
    "counters identical" counters1 counters4

(* Determinism: tracing must never perturb results — the Monte Carlo
   per-sample streams stay bitwise-identical with recording on. *)

let test_tracing_does_not_perturb_mc () =
  let problem =
    Power_core.Calibration.problem_of_row Device.Technology.ll
      ~f:Power_core.Paper_data.frequency
      (Power_core.Paper_data.table1_find "Wallace")
  in
  let run ~traced jobs =
    let body () =
      with_jobs jobs (fun () ->
          let rng = Numerics.Rng.create 2006 in
          Power_core.Variation.monte_carlo ~samples:60 ~rng problem)
    in
    if traced then with_recording body else body ()
  in
  let bits (r : Power_core.Variation.result) =
    List.concat_map
      (fun (s : Power_core.Variation.sample) ->
        List.map Int64.bits_of_float
          [
            s.leak_factor; s.cap_factor; s.speed_factor; s.alpha;
            s.optimum.Power_core.Power_law.vdd;
            s.optimum.Power_core.Power_law.total;
          ])
      r.samples
  in
  let plain = bits (run ~traced:false 1) in
  Alcotest.(check (list int64))
    "traced sequential = plain" plain
    (bits (run ~traced:true 1));
  Alcotest.(check (list int64))
    "traced parallel = plain" plain
    (bits (run ~traced:true 4))

let () =
  Alcotest.run "obs"
    [
      ( "recording",
        [
          Alcotest.test_case "counters merge across domains" `Quick
            test_counters_merge_across_domains;
          Alcotest.test_case "counter add; zeros omitted" `Quick
            test_counter_add_and_zero_omitted;
          Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
          Alcotest.test_case "span nesting" `Quick test_span_nesting_in_profile;
          Alcotest.test_case "ctx reparents across domains" `Quick
            test_span_ctx_reparents;
          Alcotest.test_case "span recorded on exception" `Quick
            test_span_recorded_on_exception;
          Alcotest.test_case "reset drops everything" `Quick
            test_reset_drops_everything;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "normalized profile independent of jobs" `Slow
            test_normalized_profile_jobs_independent;
          Alcotest.test_case "tracing does not perturb monte carlo" `Slow
            test_tracing_does_not_perturb_mc;
        ] );
    ]
