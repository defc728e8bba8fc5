(* The warm-store suite: crash recovery, lock contention, corruption
   fallback and fingerprint invalidation for [Store]; exact-codec
   round-trips for [Power_core.Warm]; and the bitwise warm-vs-cold
   differentials over the explorer.

   Also runnable alone: dune build @store

   The fork-based tests (crash replay, lock contention) run first, before
   anything creates a [Parallel.Pool] domain — forking a multi-domain
   runtime is undefined territory, forking a single-domain one is not. *)

module B = Multipliers.Booth
module E = Power_core.Explorer
module N = Power_core.Numerical_opt
module Pl = Power_core.Power_law
module P = Power_core.Paper_data
module W = Power_core.Warm

(* ------------------------------ helpers ------------------------------ *)

let seq = ref 0

let fresh_dir () =
  incr seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "optstore-test.%d.%d" (Unix.getpid ()) !seq)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let open_rw ?(fp = "test-fp") dir =
  match Store.open_ ~path:dir ~fingerprint:fp () with
  | Ok t -> t
  | Error e -> Alcotest.failf "open %s: %s" dir e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let append_file path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* ---------------------------- crash safety ---------------------------- *)

(* A writer that dies without [close] — every [put] flushes its log
   record, so the next opener must replay the full history, reclaim the
   dead PID's lock, and truncate whatever torn tail the crash left. *)
let test_crash_replay () =
  with_dir (fun dir ->
      (match Unix.fork () with
      | 0 ->
          (try
             let t = open_rw dir in
             for i = 1 to 5 do
               Store.put t ~ns:"crash"
                 (Printf.sprintf "k%d" i)
                 (Printf.sprintf "v%d" i)
             done
           with _ -> ());
          (* No close, no flush: simulates SIGKILL after the last put. *)
          Unix._exit 0
      | pid -> ignore (Unix.waitpid [] pid));
      (* A torn append on top of the intact records... *)
      append_file (Filename.concat dir "log.bin") "R\x02\x00GARBAGE-TORN-TAIL";
      (* ...and a temp snapshot from a flush that never reached rename. *)
      write_file (Filename.concat dir "index.tmp") "partial snapshot junk";
      let t = open_rw dir in
      Alcotest.(check bool) "dead writer's lock reclaimed" true
        (Store.mode t = Store.Read_write);
      Alcotest.(check int) "all five puts replayed" 5 (Store.entries t);
      for i = 1 to 5 do
        Alcotest.(check (option string))
          (Printf.sprintf "k%d survives the crash" i)
          (Some (Printf.sprintf "v%d" i))
          (Store.find t ~ns:"crash" (Printf.sprintf "k%d" i))
      done;
      Alcotest.(check bool) "torn tail counted as recovered" true
        ((Store.stats t).Store.recovered > 0);
      Alcotest.(check bool) "killed-flush temp snapshot removed" false
        (Sys.file_exists (Filename.concat dir "index.tmp"));
      Store.put t ~ns:"crash" "k6" "v6";
      Store.close t;
      let t2 = open_rw dir in
      Alcotest.(check int) "clean reopen after recovery" 6 (Store.entries t2);
      Store.close t2)

(* Two live processes: the second opener must degrade to a read-only
   view (puts dropped), and regain the lock once the owner exits. *)
let test_lock_contention () =
  with_dir (fun dir ->
      let r_ready, w_ready = Unix.pipe () in
      let r_go, w_go = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          Unix.close r_ready;
          Unix.close w_go;
          (try
             let t = open_rw dir in
             Store.put t ~ns:"lk" "owner" "child";
             ignore (Unix.write_substring w_ready "r" 0 1);
             ignore (Unix.read r_go (Bytes.create 1) 0 1);
             Store.close t
           with _ -> ());
          Unix._exit 0
      | pid ->
          Unix.close w_ready;
          Unix.close r_go;
          ignore (Unix.read r_ready (Bytes.create 1) 0 1);
          let t = open_rw dir in
          Alcotest.(check bool) "second opener degrades to read-only" true
            (Store.mode t = Store.Read_only);
          Alcotest.(check (option string)) "sees the owner's flushed put"
            (Some "child")
            (Store.find t ~ns:"lk" "owner");
          Store.put t ~ns:"lk" "dropped" "x";
          Alcotest.(check (option string)) "read-only put dropped" None
            (Store.find t ~ns:"lk" "dropped");
          Store.close t;
          ignore (Unix.write_substring w_go "g" 0 1);
          ignore (Unix.waitpid [] pid);
          Unix.close r_ready;
          Unix.close w_go;
          let t2 = open_rw dir in
          Alcotest.(check bool) "lock regained after the owner exits" true
            (Store.mode t2 = Store.Read_write);
          Alcotest.(check (option string)) "owner's data intact" (Some "child")
            (Store.find t2 ~ns:"lk" "owner");
          Store.close t2)

let populate dir n =
  let t = open_rw dir in
  for i = 0 to n - 1 do
    Store.put t ~ns:"c"
      (Printf.sprintf "k%d" i)
      (Printf.sprintf "value-%d" i)
  done;
  Store.close t

(* Corruption never crashes an open: a flipped byte costs at most the
   records from the damage onward, full garbage costs the snapshot and
   falls back to cold — the store stays usable either way. *)
let test_corruption_recovery () =
  with_dir (fun dir ->
      populate dir 10;
      let index = Filename.concat dir "index.bin" in
      let s = read_file index in
      let b = Bytes.of_string s in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
      write_file index (Bytes.to_string b);
      let t = open_rw dir in
      Alcotest.(check int) "checksum flip loses exactly the last record" 9
        (Store.entries t);
      Alcotest.(check bool) "flip counted as recovered" true
        ((Store.stats t).Store.recovered > 0);
      Store.put t ~ns:"c" "fresh" "after-recovery";
      Store.close t;
      let t2 = open_rw dir in
      Alcotest.(check (option string)) "usable after recovery"
        (Some "after-recovery")
        (Store.find t2 ~ns:"c" "fresh");
      Store.close t2);
  with_dir (fun dir ->
      populate dir 4;
      write_file (Filename.concat dir "index.bin") "total garbage, no header";
      let t = open_rw dir in
      Alcotest.(check int) "garbage snapshot falls back to cold" 0
        (Store.entries t);
      Alcotest.(check bool) "garbage counted as recovered" true
        ((Store.stats t).Store.recovered > 0);
      Store.put t ~ns:"c" "k" "v";
      Alcotest.(check (option string)) "still usable" (Some "v")
        (Store.find t ~ns:"c" "k");
      Store.close t)

let test_fingerprint_invalidation () =
  with_dir (fun dir ->
      let a = open_rw ~fp:"model-A" dir in
      Store.put a ~ns:"n" "k1" "v1";
      Store.put a ~ns:"n" "k2" "v2";
      Store.close a;
      let a2 = open_rw ~fp:"model-A" dir in
      Alcotest.(check int) "same fingerprint keeps entries" 2
        (Store.entries a2);
      Alcotest.(check bool) "not invalidated" false
        (Store.stats a2).Store.invalidated;
      Store.close a2;
      let b = open_rw ~fp:"model-B" dir in
      Alcotest.(check int) "new fingerprint discards everything" 0
        (Store.entries b);
      Alcotest.(check bool) "invalidation reported" true
        (Store.stats b).Store.invalidated;
      Store.put b ~ns:"n" "k1" "fresh";
      Store.close b;
      let b2 = open_rw ~fp:"model-B" dir in
      Alcotest.(check (option string)) "rebuilt under the new model"
        (Some "fresh")
        (Store.find b2 ~ns:"n" "k1");
      Store.close b2)

(* ------------------------------ round-trip ----------------------------- *)

let test_roundtrip_basic () =
  with_dir (fun dir ->
      let t = open_rw dir in
      Alcotest.(check (option string)) "empty store misses" None
        (Store.find t ~ns:"a" "k");
      Store.put t ~ns:"a" "k" "v1";
      Store.put t ~ns:"b" "k" "other-namespace";
      Alcotest.(check (option string)) "namespaces are disjoint" (Some "v1")
        (Store.find t ~ns:"a" "k");
      Store.put t ~ns:"a" "k" "v2";
      Alcotest.(check (option string)) "replace wins" (Some "v2")
        (Store.find t ~ns:"a" "k");
      Alcotest.(check int) "entries" 2 (Store.entries t);
      let seen = ref [] in
      Store.iter t ~ns:"a" (fun k v -> seen := (k, v) :: !seen);
      Alcotest.(check (list (pair string string))) "iter one namespace"
        [ ("k", "v2") ] !seen;
      Store.close t;
      let t2 = open_rw dir in
      Alcotest.(check (option string)) "persisted across close" (Some "v2")
        (Store.find t2 ~ns:"a" "k");
      Alcotest.(check (option string)) "both namespaces persisted"
        (Some "other-namespace")
        (Store.find t2 ~ns:"b" "k");
      Store.close t2)

let test_gc_and_clear () =
  with_dir (fun dir ->
      let t = open_rw dir in
      Store.put t ~ns:"g" "k" "a";
      Store.put t ~ns:"g" "k" "b";
      Store.put t ~ns:"g" "k" "c";
      Alcotest.(check int) "gc retires the superseded versions" 2 (Store.gc t);
      Alcotest.(check int) "second gc has nothing to retire" 0 (Store.gc t);
      Alcotest.(check (option string)) "latest version survives" (Some "c")
        (Store.find t ~ns:"g" "k");
      Store.clear t;
      Alcotest.(check int) "clear drops everything" 0 (Store.entries t);
      Store.close t;
      let t2 = open_rw dir in
      Alcotest.(check int) "clear persisted" 0 (Store.entries t2);
      Store.close t2)

let test_readonly_open () =
  with_dir (fun dir ->
      populate dir 3;
      let t =
        match Store.open_ ~readonly:true ~path:dir ~fingerprint:"test-fp" () with
        | Ok t -> t
        | Error e -> Alcotest.failf "readonly open: %s" e
      in
      Alcotest.(check bool) "readonly mode" true
        (Store.mode t = Store.Read_only);
      Alcotest.(check bool) "readonly takes no lock" false
        (Sys.file_exists (Filename.concat dir "LOCK"));
      Alcotest.(check int) "readonly sees the data" 3 (Store.entries t);
      Store.put t ~ns:"c" "k99" "x";
      Alcotest.(check (option string)) "readonly put dropped" None
        (Store.find t ~ns:"c" "k99");
      Store.close t)

let test_stats_and_counters () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      with_dir (fun dir ->
          let t = open_rw dir in
          ignore (Store.find t ~ns:"s" "missing");
          Store.put t ~ns:"s" "k" "v";
          ignore (Store.find t ~ns:"s" "k");
          Store.put t ~ns:"s" "k" "v";
          (* identical: skipped *)
          let st = Store.stats t in
          Alcotest.(check int) "one hit" 1 st.Store.hits;
          Alcotest.(check int) "one miss" 1 st.Store.misses;
          Alcotest.(check int) "one value-changing put" 1 st.Store.puts;
          Store.close t;
          List.iter
            (fun c ->
              Alcotest.(check bool)
                (Printf.sprintf "counter %s ticked" c)
                true
                (Obs.counter_value c > 0))
            [ "store.hit"; "store.miss"; "store.put"; "store.put_skip" ]))

(* Arbitrary-byte payloads (namespaces kept short: the frame gives them a
   uint16 length) survive put/find and a close/reopen cycle, last write
   wins. *)
let prop_roundtrip =
  let triple =
    QCheck.triple
      (QCheck.string_gen_of_size (QCheck.Gen.int_bound 8) QCheck.Gen.char)
      (QCheck.string_gen QCheck.Gen.char)
      (QCheck.string_gen QCheck.Gen.char)
  in
  QCheck.Test.make ~name:"arbitrary-byte records survive close/reopen"
    ~count:15
    (QCheck.list_of_size (QCheck.Gen.int_bound 20) triple)
    (fun records ->
      with_dir (fun dir ->
          let t = open_rw dir in
          List.iter (fun (ns, k, v) -> Store.put t ~ns k v) records;
          let expected = Hashtbl.create 16 in
          List.iter
            (fun (ns, k, v) -> Hashtbl.replace expected (ns, k) v)
            records;
          let check t =
            Hashtbl.fold
              (fun (ns, k) v ok -> ok && Store.find t ~ns k = Some v)
              expected true
          in
          let live = check t in
          Store.close t;
          let t2 = open_rw dir in
          let reopened = check t2 && Store.entries t2 = Hashtbl.length expected in
          Store.close t2;
          live && reopened))

(* ------------------------------- codecs -------------------------------- *)

let bits_of l = List.map Int64.bits_of_float l

let test_float_codec_exact () =
  let specials =
    [
      0.0;
      -0.0;
      1.0 /. 3.0;
      -1.6180339887498949;
      Float.min_float;
      4.9e-324 (* denormal floor *);
      Float.max_float;
      infinity;
      neg_infinity;
      1e-30;
    ]
  in
  (match W.decode_floats (W.encode_floats specials) with
  | None -> Alcotest.fail "special floats failed to decode"
  | Some l ->
      Alcotest.(check (list int64)) "bitwise float round-trip"
        (bits_of specials) (bits_of l));
  Alcotest.(check (option (list int64))) "garbage rejected" None
    (Option.map bits_of (W.decode_floats "0x1p+0 not-a-float"))

let test_point_and_opt_codec () =
  let row = List.hd P.table1 in
  let problem =
    Power_core.Calibration.problem_of_row Device.Technology.ll ~f:P.frequency
      row
  in
  let p = N.optimum problem in
  let pbits (b : Pl.breakdown) =
    bits_of [ b.Pl.vdd; b.Pl.vth; b.Pl.dynamic; b.Pl.static; b.Pl.total ]
  in
  (match W.decode_opt (W.encode_opt (Some (p, p.Pl.total *. 0.5))) with
  | Some (Some (q, lo)) ->
      Alcotest.(check (list int64)) "stored outcome point bitwise" (pbits p)
        (pbits q);
      Alcotest.(check int64) "certified bound bitwise"
        (Int64.bits_of_float (p.Pl.total *. 0.5))
        (Int64.bits_of_float lo)
  | _ -> Alcotest.fail "feasible outcome failed to decode");
  (match W.decode_opt (W.encode_opt None) with
  | Some None -> ()
  | _ -> Alcotest.fail "infeasible marker failed to round-trip");
  Alcotest.(check bool) "undecodable outcome rejected" true
    (W.decode_opt "F 1.0 bogus" = None);
  (* Distinct problems must have distinct exact keys; the design prefix
     depends only on the technology and architecture fields, so scaling
     the throughput of a fixed design leaves it unchanged. *)
  let near = { problem with Pl.f = problem.Pl.f *. (1.0 +. 1e-12) } in
  Alcotest.(check bool) "problem key is exact in f" true
    (W.problem_key problem <> W.problem_key near);
  Alcotest.(check string) "design key ignores f" (W.design_key problem)
    (W.design_key near)

let test_model_fingerprint () =
  let fp = W.fingerprint () in
  Alcotest.(check string) "fingerprint is deterministic" fp (W.fingerprint ());
  Alcotest.(check bool) "fingerprint is a hex digest" true
    (String.length fp = 16
    && String.for_all
         (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
         fp);
  (match Sys.getenv_opt "OPTPOWER_STORE" with
  | Some _ -> ()
  | None ->
      Alcotest.(check string) "default store path" ".optpower-store"
        (W.default_path ()));
  Unix.putenv "OPTPOWER_STORE" "/tmp/elsewhere";
  Alcotest.(check string) "OPTPOWER_STORE overrides" "/tmp/elsewhere"
    (W.default_path ());
  Unix.putenv "OPTPOWER_STORE" "";
  Alcotest.(check string) "empty override falls back" ".optpower-store"
    (W.default_path ())

(* ------------------------- warm-path differentials --------------------- *)

let wc_axes =
  {
    E.bits = 4;
    families = [ E.Booth; E.Dadda; E.Wallace ];
    radices = [ 4 ];
    signednesses = [ B.Unsigned ];
    stages = [ 1; 2 ];
    copies = [ 1; 2 ];
    fmults = [ 0.5; 1.0 ];
    techs = [ Device.Technology.ll; Device.Technology.hs ];
  }

(* Full-precision fingerprint of a result's fronts: string equality is
   equality of the underlying float64 bits. *)
let front_fp (r : E.result) =
  String.concat "\n"
    (List.concat_map
       (fun (s : E.slice) ->
         Printf.sprintf "f=%h" s.f
         :: List.map
              (fun (e : E.entry) ->
                Printf.sprintf "%s %h %h %h %h %h" e.design e.power e.vdd
                  e.cert_lo e.latency e.area)
              s.front)
       r.slices)

let test_warm_vs_cold_fronts_any_pool () =
  with_dir (fun dir ->
      let storeless = front_fp (E.explore ~prune:true wc_axes) in
      let open_store () =
        match W.open_store ~path:dir () with
        | Some s -> s
        | None -> Alcotest.fail "warm store failed to open"
      in
      let st = open_store () in
      let cold = E.explore ~prune:true ~store:st wc_axes in
      Store.close st;
      Alcotest.(check string) "cold run matches the storeless bits" storeless
        (front_fp cold);
      Alcotest.(check int) "first run replays nothing" 0
        cold.E.totals.E.store_hits;
      Alcotest.(check bool) "first run solves something" true
        (cold.E.totals.E.exact_solves > 0);
      List.iter
        (fun jobs ->
          let st = open_store () in
          let pool = Parallel.Pool.create ~jobs () in
          let warm = E.explore ~pool ~prune:true ~store:st wc_axes in
          Parallel.Pool.shutdown pool;
          Store.close st;
          Alcotest.(check string)
            (Printf.sprintf "warm front bitwise-identical at -j %d" jobs)
            storeless (front_fp warm);
          Alcotest.(check int)
            (Printf.sprintf "warm run re-solves nothing at -j %d" jobs)
            0 warm.E.totals.E.exact_solves;
          Alcotest.(check bool)
            (Printf.sprintf "warm run replays from the store at -j %d" jobs)
            true
            (warm.E.totals.E.store_hits > 0);
          Alcotest.(check int)
            (Printf.sprintf "warm funnel still partitions at -j %d" jobs)
            warm.E.totals.E.enumerated
            (warm.E.totals.E.filtered + warm.E.totals.E.bound_pruned
            + warm.E.totals.E.cert_pruned + warm.E.totals.E.store_hits
            + warm.E.totals.E.exact_solves))
        [ 1; 4; 8 ])

(* The explorer formats each store key from the design key a candidate
   carries. Over every family, radix, signedness and depth, 1-8 copies,
   all three flavors and fractional throughputs, the keys it files must be
   byte for byte [Warm.problem_key] of each candidate problem and the
   "design key|f:<hex f>" ledger grammar earlier stores were written in. *)
let key_axes =
  {
    E.bits = 4;
    families = [ E.Booth; E.Dadda; E.Wallace ];
    radices = [ 2; 4; 8 ];
    signednesses = [ B.Unsigned; B.Signed ];
    stages = [ 1; 2; 3 ];
    copies = [ 1; 2; 4; 8 ];
    fmults = [ 0.3; 0.75; 1.5 ];
    techs = Device.Technology.[ ll; hs; ull ];
  }

let test_explorer_store_keys () =
  with_dir (fun dir ->
      let st =
        match W.open_store ~path:dir () with
        | Some s -> s
        | None -> Alcotest.fail "warm store failed to open"
      in
      let r = E.explore ~prune:false ~store:st key_axes in
      let stored ns =
        let acc = ref [] in
        Store.iter st ~ns (fun k v -> acc := (k, v) :: !acc);
        !acc
      in
      let opt = stored W.ns_opt and ledger = stored W.ns_ledger in
      Store.close st;
      let problems = E.problems key_axes in
      Alcotest.(check int) "the whole space" (E.space_size key_axes)
        (List.length problems);
      Alcotest.(check int) "every candidate solved or replayed"
        (List.length problems)
        (r.E.totals.E.exact_solves + r.E.totals.E.store_hits);
      Alcotest.(check (list string)) "opt keys = Warm.problem_key"
        (List.sort_uniq String.compare (List.map W.problem_key problems))
        (List.sort String.compare (List.map fst opt));
      let ledger_key (p : Pl.problem) =
        Printf.sprintf "%s|f:%h" (W.design_key p) p.Pl.f
      in
      let expected = List.map ledger_key problems in
      List.iter
        (fun (k, _) ->
          if not (List.mem k expected) then
            Alcotest.failf "ledger key of no candidate: %s" k)
        ledger;
      let feasible =
        List.filter
          (fun p ->
            match W.decode_opt (List.assoc (W.problem_key p) opt) with
            | Some (Some _) -> true
            | _ -> false)
          problems
      in
      Alcotest.(check bool) "some candidates are feasible" true
        (feasible <> []);
      List.iter
        (fun p ->
          if not (List.mem_assoc (ledger_key p) ledger) then
            Alcotest.failf "feasible candidate without a ledger key: %s"
              (ledger_key p))
        feasible)

let () =
  Alcotest.run "store"
    [
      ( "crash-safety",
        [
          Alcotest.test_case "killed writer: replay, stale lock, torn tail"
            `Quick test_crash_replay;
          Alcotest.test_case "two-process lock contention" `Quick
            test_lock_contention;
          Alcotest.test_case "corrupted files degrade to cold" `Quick
            test_corruption_recovery;
          Alcotest.test_case "fingerprint change invalidates" `Quick
            test_fingerprint_invalidation;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "put/find/iter/persist" `Quick
            test_roundtrip_basic;
          Alcotest.test_case "gc and clear" `Quick test_gc_and_clear;
          Alcotest.test_case "readonly open" `Quick test_readonly_open;
          Alcotest.test_case "stats and store.* counters" `Quick
            test_stats_and_counters;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "hex-float round-trip incl. specials" `Quick
            test_float_codec_exact;
          Alcotest.test_case "point/outcome codecs and exact keys" `Quick
            test_point_and_opt_codec;
          Alcotest.test_case "model fingerprint and default path" `Quick
            test_model_fingerprint;
        ] );
      ( "warm-paths",
        [
          Alcotest.test_case "warm = cold fronts bitwise at -j 1/4/8" `Quick
            test_warm_vs_cold_fronts_any_pool;
          Alcotest.test_case "explorer store keys" `Quick
            test_explorer_store_keys;
        ] );
    ]
