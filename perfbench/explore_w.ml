(* explore-store: each op is one Explorer.explore call over seed-drawn
   axes against one warm store opened once per run; exactly a quarter of
   the ops repeat an earlier op's axes, so warm-store replays run beside
   cold solves and puts. *)

open Perfbench
open Common
module S = Script
module E = Power_core.Explorer
module W = Power_core.Warm

let open_store dir =
  match W.open_store ~path:dir () with
  | Some st -> st
  | None -> failwith ("cannot open the warm store at " ^ dir)

(* The cold work a user pays once: open a fresh store and characterise
   every substrate the script can draw (the universe axes). *)
let setup ~dir =
  timed (fun () ->
      let st = open_store dir in
      ignore (E.explore ~store:st S.explore_universe);
      st)

let probe ~dir = snd (setup ~dir:(Filename.concat dir "store"))

(* The fronts as exact text: two runs agree iff every float bit does. *)
let fronts_text (r : E.result) =
  let b = Buffer.create 256 in
  List.iter
    (fun (s : E.slice) ->
      Printf.bprintf b "f=%h\n" s.f;
      List.iter
        (fun (e : E.entry) ->
          Printf.bprintf b "%s %s %h %h %h %h %h\n" e.label e.design e.power
            e.vdd e.cert_lo e.latency e.area)
        s.front)
    r.slices;
  Buffer.contents b

let funnel_ok axes (r : E.result) =
  let t = r.totals in
  t.enumerated = E.space_size axes
  && t.enumerated
     = t.filtered + t.bound_pruned + t.cert_pruned + t.store_hits
       + t.exact_solves
  && t.front_size > 0

let sampled ~seed (ops : S.explore_op array) =
  let st = Random.State.make [| seed; 0xe4b |] in
  let cold =
    List.filter (fun i -> ops.(i).repeat_of = None)
      (List.init (Array.length ops) Fun.id)
  in
  List.sort_uniq compare (List.init 2 (fun _ -> S.pick st cold))

(* One timed play of the script against [store]. *)
type played = {
  results : E.result array;
  texts : string array;
  lat : float array;  (** ms, script order *)
  window_s : float;
}

let play ~traced ~store (ops : S.explore_op array) =
  let n = Array.length ops in
  let results = Array.make n None and lat = Array.make n 0.0 in
  let t0 = now () in
  Array.iteri
    (fun i (o : S.explore_op) ->
      let r, dt =
        timed (fun () -> span "explore" (fun () -> E.explore ~store o.axes))
      in
      if traced then harvest ();
      results.(i) <- Some r;
      lat.(i) <- dt *. 1000.0)
    ops;
  let window_s = now () -. t0 in
  let results = Array.map Option.get results in
  { results; texts = Array.map fronts_text results; lat; window_s }

let enumerated (p : played) =
  Array.fold_left (fun a (r : E.result) -> a + r.totals.enumerated) 0 p.results

(* The plays of one script as a pass: an op's latency is the median of
   its plays; every play does the same work, and the window is the
   median play's, so the work rate is the median of the plays' rates.
   An op passes when
   every play's funnel partitions its space, every play's fronts equal
   the first play's, a repeat's fronts equal its source's, and (for two
   seed-chosen cold ops) the fronts equal [explore ~prune:false]. *)
let combine ~seed (ops : S.explore_op array) (plays : played list) =
  let first = List.hd plays in
  let ok =
    Array.mapi
      (fun i (o : S.explore_op) ->
        List.for_all
          (fun p -> funnel_ok o.axes p.results.(i) && p.texts.(i) = first.texts.(i))
          plays
        &&
        match o.repeat_of with
        | Some j -> first.texts.(i) = first.texts.(j)
        | None -> true)
      ops
  in
  List.iter
    (fun i ->
      let exhaustive = E.explore ~prune:false ops.(i).axes in
      if fronts_text exhaustive <> first.texts.(i) then ok.(i) <- false)
    (sampled ~seed ops);
  let med f = median (Array.of_list (List.map f plays)) in
  {
    work = float_of_int (enumerated first);
    window_s = med (fun p -> p.window_s);
    lat_ms =
      Array.init (Array.length ops) (fun i ->
          median (Array.of_list (List.map (fun p -> p.lat.(i)) plays)));
    ok = count_true ok;
    attempted = Array.length ops;
  }

(* Characterisation counters come from a traced set-up in a fresh
   process, where the substrate memo is cold. *)
let probe_traced ~dir =
  Obs.set_enabled true;
  let dt = probe ~dir in
  Obs.set_enabled false;
  let c name = float_of_int (Obs.counter_value name) in
  J.to_string
    (J.Obj
       [
         ("characterize_s", J.Num dt);
         ("chars_miss", J.Num (c "memo.dse.chars.miss"));
         ("gate_evals", J.Num (c "sim.gate_evals"));
         ("events", J.Num (c "sim.events"));
       ])

let characterisation ~dir =
  let line =
    probe_line ~extra:[| "--trace"; "1" |] ~workload:"explore-store"
      ~dir:(Filename.concat dir "probe-traced") ()
  in
  let j = match J.parse line with Ok j -> j | Error e -> failwith e in
  fun k -> match J.member k j with Some (J.Num v) -> v | _ -> 0.0

(* Store costs replayed over the run's own keys, outside the window.
   Neither store is closed: closing compacts and fsyncs a snapshot of the
   whole log, device time that dwarfs the layer's own work on a disk
   under the checkout. The reopen is read-only, so it replays the
   snapshot and log without the lock or a write. *)
let store_micro ~dir st =
  let keys = ref [] in
  List.iter
    (fun ns -> Store.iter st ~ns (fun k v -> keys := (ns, k, v) :: !keys))
    [ W.ns_chars; W.ns_opt; W.ns_ledger; W.ns_solve ];
  List.iter
    (fun (ns, k, _) -> ignore (span "store.find" (fun () -> Store.find st ~ns k)))
    !keys;
  let scratch = open_store (Filename.concat dir "replay") in
  List.iter
    (fun (ns, k, v) -> span "store.put" (fun () -> Store.put scratch ~ns k v))
    !keys;
  let path = Store.path st in
  (match
     span "store.open" (fun () ->
         Store.open_ ~readonly:true ~path ~fingerprint:(W.fingerprint ()) ())
   with
  | Ok again -> Store.close again
  | Error e -> failwith e);
  Store.stats st

let run (c : ctx) =
  let store_dir k = Filename.concat c.dir (Printf.sprintf "store-%d" k) in
  let ops = Array.of_list (S.explore_script ~seed:c.seed ~seconds:c.seconds) in
  (* Each play opens a fresh store and characterises the universe before
     its window. No store is closed: closing compacts and fsyncs a
     snapshot, device I/O no metric measures. The run directory is
     removed at exit. *)
  let plays =
    List.init S.explore_rounds (fun k ->
        (* The previous play's store is garbage by now; reclaim it so the
           peak RSS is that of one play, not of uncollected ones. *)
        Gc.compact ();
        let st, _ = setup ~dir:(store_dir k) in
        play ~traced:false ~store:st ops)
  in
  let pass = combine ~seed:c.seed ops plays in
  let rss_mb = peak_rss_mb () in
  let layers =
    if not c.trace then []
    else begin
      let chars = characterisation ~dir:c.dir in
      let st, _ = setup ~dir:(store_dir S.explore_rounds) in
      Obs.reset ();
      Obs.set_enabled true;
      let g0 = gc_snapshot () in
      let t = play ~traced:true ~store:st ops in
      let g1 = gc_snapshot () in
      Obs.set_enabled false;
      let stats = store_micro ~dir:c.dir st in
      let certs =
        List.concat_map
          (fun tech ->
            List.map (Serve.Engine.problem_of_label tech) S.labels)
          S.flavors
      in
      List.iter
        (fun pr ->
          ignore
            (span "certify" (fun () ->
                 Power_core.Absint.certify (Power_core.Absint.box pr))))
        certs;
      let sum f =
        float_of_int
          (Array.fold_left (fun a (r : E.result) -> a + f r.totals) 0 t.results)
      in
      let enumerated = sum (fun t -> t.enumerated) in
      let exact = sum (fun t -> t.exact_solves) in
      pool_solver_layers tc
      @ store_cert_layers tc
      @ [
        m "pool.join_wait_ms" "ms" !join_wait_ms;
        m "explore.enumerated" "count" enumerated;
        m "explore.bound_pruned" "count" (sum (fun t -> t.bound_pruned));
        m "explore.cert_pruned" "count" (sum (fun t -> t.cert_pruned));
        m "explore.store_hits" "count" (sum (fun t -> t.store_hits));
        m "explore.exact_solves" "count" exact;
        m "explore.front_size" "count" (sum (fun t -> t.front_size));
        m "explore.solve_skip_frac" "fraction" (1.0 -. ratio exact enumerated);
        m "explore.chars_miss" "count" (chars "chars_miss");
        m "explore.characterize_s" "s" (chars "characterize_s");
        m "sim.gate_evals" "count" (chars "gate_evals");
        m "sim.events" "count" (chars "events");
        m "cert.certify_ms" "ms" (span_median_us "certify" /. 1e3);
        m "store.find_us" "us" (span_median_us "store.find");
        m "store.put_us" "us" (span_median_us "store.put");
        m "store.open_ms" "ms" (span_median_us "store.open" /. 1e3);
        m "store.log_bytes" "bytes" (float_of_int stats.log_bytes);
        m "store.entries" "count" (float_of_int stats.entries);
        m "trace.overhead_pct" "%"
          (overhead_pct ~untraced:pass
             ~traced:
               { pass with work = enumerated; window_s = t.window_s });
      ]
      @ gc_layers ~work:enumerated g0 g1
    end
  in
  { pass; rss_mb; tail_pct = S.explore_tail_pct; layers }
