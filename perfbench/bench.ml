(* The benchmark's load generator. `python3 perfbench/run.py` builds it
   and runs

     bench.exe run --workload W --seed N --seconds S --trace 0|1 --dir D

   which plays workload W's fixed script (generated from the seed),
   checks every output outside the timed window and prints one JSON
   result as its last stdout line. Helper modes: [probe] (one cold
   set-up in a fresh process) and [serve-child] (the server of
   serve-mix). *)

open Perfbench
open Common

let per_layer_units =
  [
    ("wire.overhead_us", "us"); ("wire.frames", "count");
    ("wire.frame_errors", "count"); ("protocol.parse_us", "us");
    ("protocol.encode_us", "us"); ("protocol.reply_bytes", "bytes");
    ("session.submit_us", "us"); ("session.queue_wait_mean_ms", "ms");
    ("session.queue_wait_max_ms", "ms"); ("session.batch_size", "count");
    ("session.cache_hit_frac", "fraction"); ("session.drain_ms", "ms");
    ("engine.exec_us.optimum", "us"); ("engine.exec_us.sweep", "us");
    ("engine.exec_us.rank", "us"); ("engine.exec_us.certify", "us");
    ("engine.exec_us.explore", "us"); ("pool.maps", "count");
    ("pool.tasks", "count"); ("pool.items", "count");
    ("pool.join_wait_ms", "ms"); ("solver.solves", "count");
    ("solver.brent_iters_per_solve", "count");
    ("solver.grid_evals_per_solve", "count");
    ("solver.seed_fallbacks", "count"); ("solver.chain_us_per_die", "us");
    ("solver.cold_us", "us"); ("yield.dies", "count");
    ("yield.chunks", "count"); ("yield.sobol_draws", "count");
    ("yield.sketch_merges", "count"); ("yield.sampler_us_per_die", "us");
    ("yield.sketch_us_per_die", "us"); ("yield.solver_share", "fraction");
    ("explore.enumerated", "count"); ("explore.bound_pruned", "count");
    ("explore.cert_pruned", "count"); ("explore.store_hits", "count");
    ("explore.exact_solves", "count"); ("explore.front_size", "count");
    ("explore.solve_skip_frac", "fraction"); ("explore.chars_miss", "count");
    ("explore.characterize_s", "s"); ("cert.boxes", "count");
    ("cert.splits", "count"); ("cert.prunes", "count");
    ("cert.certify_ms", "ms"); ("store.hit", "count"); ("store.miss", "count");
    ("store.put", "count"); ("store.flush", "count");
    ("store.hit_frac", "fraction"); ("store.find_us", "us");
    ("store.put_us", "us"); ("store.open_ms", "ms");
    ("store.log_bytes", "bytes"); ("store.entries", "count");
    ("sim.gate_evals", "count"); ("sim.events", "count");
    ("gc.minor_words_per_work", "words"); ("gc.major_words_per_work", "words");
    ("gc.major_collections", "count"); ("trace.overhead_pct", "%");
  ]

(* Reproduction accuracy (ROADMAP item 5): the worst Eq. 13 error over
   Table 1 and the ULL/HS Wallace tables, and the worst deviation of the
   numerical optimum from the published Ptot. *)
let accuracy () =
  let module X = Report.Experiments in
  let t1 = X.table1 () in
  let ws = List.concat_map (fun f -> (X.table_wallace f).rows) [ `Ull; `Hs ] in
  let dev a b = Float.abs (a -. b) /. b *. 100.0 in
  let eq13 =
    List.fold_left
      (fun a (r : X.wallace_row) -> Float.max a (Float.abs r.w_err_pct))
      (List.fold_left (fun a (r : X.table1_row) -> Float.max a (Float.abs r.err_pct)) 0.0 t1)
      ws
  in
  let paper =
    List.fold_left
      (fun a (r : X.wallace_row) -> Float.max a (dev r.w_ptot r.w_paper.w_ptot))
      (List.fold_left
         (fun a (r : X.table1_row) -> Float.max a (dev r.ptot r.paper.ptot))
         0.0 t1)
      ws
  in
  (eq13, paper)

let host ~dir =
  J.Obj
    [
      ("nproc", J.Num (float_of_int (nproc ())));
      ("pool_size", J.Num (float_of_int (Parallel.Pool.default_jobs ())));
      ("ocaml", J.Str Sys.ocaml_version);
      ("store_fs", J.Str (fs_type dir));
      ("loadavg", J.Num (loadavg ()));
      ("reference_loop_ms", J.Num (reference_loop_ms ()));
    ]

(* Set-up time: the median of several cold set-ups, each in a fresh
   process, so one slow process start does not set the figure. *)
let probe_setup ~workload ~dir =
  let one k =
    if k > 0 then Unix.sleepf probe_gap_s;
    float_of_string
      (probe_line ~workload ~dir:(Filename.concat dir (Printf.sprintf "probe-%d" k)) ())
  in
  median (Array.init probes one)

let run ~workload (c : ctx) =
  mkdir_p c.dir;
  note "host-start" (host ~dir:c.dir);
  let setup_s, outcome =
    match workload with
    | "yield-sobol" ->
      let s = probe_setup ~workload ~dir:c.dir in
      (s, Yield_w.run c)
    | "explore-store" ->
      let s = probe_setup ~workload ~dir:c.dir in
      (s, Explore_w.run c)
    | "serve-mix" -> Serve_w.run c
    | w -> failwith ("unknown workload " ^ w)
  in
  note "host-end" (host ~dir:c.dir);
  let eq13, paper = accuracy () in
  let p = outcome.pass in
  let n = Array.length p.lat_ms in
  note "ops"
    (J.Obj
       [
         ("ops", J.Num (float_of_int n));
         ("tail_pct", J.Num outcome.tail_pct);
         ("beyond_tail", J.Num (float_of_int (beyond ~n outcome.tail_pct)));
         ("window_s", J.Num p.window_s);
       ]);
  let failed = p.attempted - p.ok in
  let correct = failed = 0 && Float.is_finite eq13 && Float.is_finite paper in
  let metrics =
    if not c.trace then
      [
        m "setup_s" "s" setup_s;
        m "work_per_s" "work/s" (work_per_s p);
        m "op_p50_ms" "ms" (median p.lat_ms);
        m "op_tail_ms" "ms" (percentile p.lat_ms outcome.tail_pct);
        m "rss_mb" "MB" outcome.rss_mb;
        m "op_ok_frac" "fraction" (float_of_int p.ok /. float_of_int p.attempted);
        m "accuracy.eq13_err_pct_max" "%" eq13;
        m "accuracy.paper_ptot_dev_pct_max" "%" paper;
      ]
    else
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun (x : metric) -> x.name = name) outcome.layers with
          | Some x -> x
          | None -> m name unit_ 0.0)
        per_layer_units
  in
  emit ~correct ~attempted:p.attempted ~failed metrics

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> failwith "malformed arguments"
  in
  let get kv k =
    match List.assoc_opt k kv with
    | Some v -> v
    | None -> failwith ("missing --" ^ k)
  in
  match args with
  | "run" :: rest ->
    let kv = opts [] rest in
    let workload = get kv "workload" in
    let dir = get kv "dir" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        run ~workload
          {
            seed = int_of_string (get kv "seed");
            seconds = float_of_string (get kv "seconds");
            trace = get kv "trace" = "1";
            dir;
          })
  | "probe" :: rest -> (
    let kv = opts [] rest in
    let dir = get kv "dir" in
    match get kv "workload" with
    | "yield-sobol" -> Printf.printf "%.9f\n" (Yield_w.setup ())
    | "explore-store" when List.assoc_opt "trace" kv = Some "1" ->
      print_endline (Explore_w.probe_traced ~dir)
    | "explore-store" -> Printf.printf "%.9f\n" (Explore_w.probe ~dir)
    | w -> failwith ("no set-up probe for " ^ w))
  | "serve-child" :: rest -> Serve_w.child (opts [] rest)
  | _ ->
    prerr_endline
      "usage: bench.exe (run|probe|serve-child) --workload W ...";
    exit 2
