(* serve-mix: the resident service in its own process, with the
   `optpower serve` defaults (result cache on, a fresh warm store),
   driven by two closed-loop connections over a Unix socket. Each
   connection plays its own fixed script (Script.serve_shares). *)

open Perfbench
open Common
module S = Script
module P = Serve.Protocol
module W = Power_core.Warm

(* {1 The server process} *)

let child kv =
  let get k = List.assoc k kv in
  let trace = List.assoc_opt "trace" kv = Some "1" in
  if trace then Obs.set_enabled true;
  (* As in `optpower serve`: block the signals before any thread starts
     and leave them to one watcher thread. SIGUSR1 writes the report. *)
  let signals = [ Sys.sigint; Sys.sigterm; Sys.sigusr1 ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK signals);
  let store = W.open_store ~path:(get "store") () in
  let config = { Serve.Session.default_config with store } in
  let session = Serve.Session.create ~config () in
  let listener = Serve.Server.listen_unix session ~path:(get "socket") in
  let report () =
    let mw, jw, mc = gc_snapshot () in
    let tmp = get "report" ^ ".tmp" in
    write_file tmp
      (J.to_string
         (J.Obj
            [
              ("rss_mb", J.Num (peak_rss_mb ()));
              ( "counters",
                J.Obj
                  (List.map
                     (fun (k, v) -> (k, J.Num (float_of_int v)))
                     (Obs.counters ())) );
              ( "hists",
                J.Obj
                  (List.map
                     (fun (k, (h : Obs.hist_summary)) ->
                       ( k,
                         J.Arr
                           [
                             J.Num (float_of_int h.h_count); J.Num h.h_sum;
                             J.Num h.h_max;
                           ] ))
                     (Obs.histograms ())) );
              ("gc", J.Arr [ J.Num mw; J.Num jw; J.Num (float_of_int mc) ]);
            ]));
    Sys.rename tmp (get "report")
  in
  let rec watch () =
    if Thread.wait_signal signals = Sys.sigusr1 then begin
      report ();
      watch ()
    end
    else Serve.Server.stop listener
  in
  let _watcher = Thread.create watch () in
  Serve.Server.wait listener

type server = { pid : int; socket : string; report : string }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~dir ~k ~trace =
  let d = Filename.concat dir (Printf.sprintf "server-%d" k) in
  mkdir_p d;
  let socket = Filename.concat d "s.sock"
  and report = Filename.concat d "report.json" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "serve-child"; "--socket"; socket; "--store";
        Filename.concat d "store"; "--report"; report; "--trace";
        (if trace then "1" else "0");
      |]
      null null Unix.stderr
  in
  Unix.close null;
  live := pid :: !live;
  { pid; socket; report }

let reap s =
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s

let connect s =
  let deadline = now () +. 30.0 in
  let rec go () =
    match Serve.Client.connect s.socket with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.001;
      go ()
  in
  go ()

let rpc c line =
  Serve.Client.send_line c line;
  match Serve.Client.recv_line c with
  | Some r -> r
  | None -> failwith "server closed the connection"

(* A top-level field of a reply line. *)
let field reply k =
  match J.parse reply with Ok j -> J.member k j | Error _ -> None

(* The first reply of each kind — certify for every flavor and an
   explore over the substrate universe, so no timed request pays a cold
   characterisation or certification. *)
let first_frames =
  let ints l = J.Arr (List.map (fun i -> J.Num (float_of_int i)) l) in
  let u = S.explore_universe in
  [
    S.frame ~id:"s0" "optimum" [ ("arch", J.Str "RCA"); ("tech", J.Str "LL") ];
    S.frame ~id:"s1" "sweep" [ ("arch", J.Str "RCA"); ("tech", J.Str "LL") ];
    S.frame ~id:"s2" "rank" [ ("tech", J.Str "LL") ];
  ]
  @ List.map
      (fun t ->
        S.frame ~id:"s3" "certify" [ ("tech", J.Str (Device.Technology.name t)) ])
      S.flavors
  @ [
      S.frame ~id:"s4" "explore"
        [
          ( "families",
            J.Arr
              (List.map
                 (fun f -> J.Str (Power_core.Explorer.family_name f))
                 u.families) );
          ("radices", ints u.radices); ("stages", ints u.stages);
          ("copies", ints u.copies);
          ("fmults", J.Arr (List.map (fun f -> J.Num f) u.fmults));
          ("tech", J.Str "LL");
        ];
    ]

(* Server start up to its first reply of each kind. *)
let start ~dir ~k ~trace =
  let t0 = now () in
  let s = spawn ~dir ~k ~trace in
  let c = connect s in
  List.iter
    (fun f -> if field (rpc c f) "ok" = None then failwith ("set-up request failed: " ^ f))
    first_frames;
  let dt = now () -. t0 in
  Serve.Client.close c;
  (s, dt)

(* {1 The load generator} *)

(* Replies are kept as digests (memory stays flat over a long script),
   with the full text only where the check must parse it: explore
   replies and errors. *)
type conn_result = {
  lat : float array;
  digests : Digest.t array;
  texts : string array;
  bytes : int array;
}

let play_connection s (script : S.request array) gate =
  let c = try Ok (connect s) with e -> Error e in
  (* Pass the gate even on failure, so the other connections start. *)
  gate ();
  let c = match c with Ok c -> c | Error e -> raise e in
  let n = Array.length script in
  let lat = Array.make n 0.0 and texts = Array.make n "" in
  let digests = Array.make n "" and bytes = Array.make n 0 in
  Array.iteri
    (fun i (r : S.request) ->
      let t0 = now () in
      let reply = rpc c r.frame in
      lat.(i) <- (now () -. t0) *. 1000.0;
      digests.(i) <- Digest.string reply;
      bytes.(i) <- String.length reply + 1;
      match r.base with
      | S.Explore | S.Malformed -> texts.(i) <- reply
      | _ -> ())
    script;
  Serve.Client.close c;
  { lat; digests; texts; bytes }

let play s scripts =
  let m = Mutex.create () and cv = Condition.create () in
  let ready = ref 0 and go = ref false in
  let k = Array.length scripts in
  let gate () =
    Mutex.lock m;
    incr ready;
    Condition.broadcast cv;
    while not !go do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let results = Array.make k None in
  let threads =
    Array.mapi
      (fun i script ->
        Thread.create
          (fun () ->
            results.(i) <-
              Some (try Ok (play_connection s script gate) with e -> Error e))
          ())
      scripts
  in
  Mutex.lock m;
  while !ready < k do
    Condition.wait cv m
  done;
  let t0 = now () in
  go := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  Array.iter Thread.join threads;
  let window_s = now () -. t0 in
  ( Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error e) -> raise e
        | None -> failwith "connection thread did not finish")
      results,
    window_s )

(* {1 Output checks, outside the window} *)

(* What a frame's reply must be. The reply line of a regular call is
   compared as text with Protocol.ok_frame of Engine.run_call's payload:
   the printer writes every float with round-trip precision, so equal
   text means equal bits. An explore reply's funnel totals depend on what
   the server's warm store already held (store_hits moves, exact_solves
   with it), so they are checked for the partition and the enumerated
   count, and the rest of the payload, fronts included, bit for bit. *)
type expect =
  | Line of Digest.t
  | Explore of Digest.t * J.t option
  | Error_code of string

let split_totals payload =
  match payload with
  | J.Obj fields -> (J.Obj (List.remove_assoc "totals" fields), J.member "totals" payload)
  | _ -> (payload, None)

let totals_ok ~want got =
  let n j k = match J.member k j with Some (J.Num v) -> v | _ -> nan in
  match (want, got) with
  | Some w, Some g ->
    n g "enumerated" = n w "enumerated"
    && n g "enumerated"
       = n g "filtered" +. n g "bound_pruned" +. n g "cert_pruned"
         +. n g "store_hits" +. n g "exact_solves"
  | _ -> false

(* Runs on any pool domain: returns the method and its run_call time
   instead of recording a span. *)
let expect_of frame =
  match P.parse_frame frame with
  | Error (_, code, _) -> (Error_code (P.code_string code), None)
  | Ok r -> (
    let payload, dt = timed (fun () -> Serve.Engine.run_call r.call) in
    let timing = Some (P.method_name r.call, dt) in
    match r.call with
    | P.Explore _ ->
      let body, totals = split_totals payload in
      (Explore (Digest.string (J.to_string body), totals), timing)
    | _ -> (Line (Digest.string (P.ok_frame ~id:r.id payload)), timing))

let reply_ok expect ~digest ~text =
  match expect with
  | Line d -> digest = d
  | Explore (d, want) -> (
    match field text "ok" with
    | Some payload ->
      let body, totals = split_totals payload in
      Digest.string (J.to_string body) = d && totals_ok ~want totals
    | None -> false)
  | Error_code code -> (
    match field text "error" with
    | Some e -> J.member "code" e = Some (J.Str code)
    | None -> false)

let check scripts (rounds : conn_result array list) =
  (* One reference per distinct frame, computed through the pool. *)
  let expected = Hashtbl.create 4096 in
  Array.iter
    (Array.iter (fun (r : S.request) -> Hashtbl.replace expected r.frame None))
    scripts;
  let frames = Array.of_seq (Hashtbl.to_seq_keys expected) in
  let refs = Parallel.Pool.map_array expect_of frames in
  Array.iteri
    (fun i (e, timing) ->
      Hashtbl.replace expected frames.(i) (Some e);
      match timing with
      | Some (meth, dt) -> record_span ("exec." ^ meth) dt
      | None -> ())
    refs;
  let ok = ref 0 and attempted = ref 0 in
  Array.iteri
    (fun ci (script : S.request array) ->
      Array.iteri
        (fun i (r : S.request) ->
          incr attempted;
          let e = Option.get (Hashtbl.find expected r.frame) in
          let intended =
            match (e, r.expect_error) with
            | Error_code code, Some want -> code = want
            | (Line _ | Explore _), None -> true
            | _ -> false
          in
          let bad =
            List.find_opt
              (fun (results : conn_result array) ->
                let res = results.(ci) in
                not (reply_ok e ~digest:res.digests.(i) ~text:res.texts.(i)))
              rounds
          in
          match bad with
          | None when intended -> incr ok
          | _ ->
            if !attempted - !ok <= 5 then
              let reply =
                match bad with Some res -> res.(ci).texts.(i) | None -> ""
              in
              note "failed"
                (J.Obj [ ("frame", J.Str r.frame); ("reply", J.Str reply) ]))
        script)
    scripts;
  (!ok, !attempted)

(* Every request of the script with its latency, the median of its
   plays, connection by connection. *)
let flat scripts (rounds : conn_result array list) =
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun ci (script : S.request array) ->
            Array.mapi
              (fun i (r : S.request) ->
                ( r.kind,
                  median
                    (Array.of_list
                       (List.map
                          (fun (res : conn_result array) -> res.(ci).lat.(i))
                          rounds)) ))
              script)
          scripts))

(* Which op classes sit around a percentile of the latency order, within
   a margin of 2 points at p50 and 0.5 at the tail. *)
let class_purity ops p =
  let all = Array.map (fun (k, l) -> (l, S.cls_of k)) ops in
  Array.sort compare all;
  let n = Array.length all in
  let at q = Int.max 0 (Int.min (n - 1) (int_of_float (q /. 100.0 *. float_of_int n))) in
  let margin = if p >= 90.0 then 0.5 else 2.0 in
  let counts = Hashtbl.create 3 in
  for i = at (p -. margin) to at (p +. margin) do
    let c = snd all.(i) in
    Hashtbl.replace counts c (1 + try Hashtbl.find counts c with Not_found -> 0)
  done;
  J.Obj
    (Hashtbl.fold
       (fun c v acc -> (S.cls_name c, J.Num (float_of_int v)) :: acc)
       counts [])

(* {1 Traced-pass helpers} *)

let read_report path =
  match J.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith ("server report: " ^ e)

let report_counter j k =
  match J.member "counters" j with
  | Some cs -> ( match J.member k cs with Some (J.Num v) -> v | _ -> 0.0)
  | None -> 0.0

let report_hist j k =
  match J.member "hists" j with
  | Some hs -> (
    match J.member k hs with
    | Some (J.Arr [ J.Num n; J.Num s; J.Num mx ]) -> (n, s, mx)
    | _ -> (0.0, 0.0, 0.0))
  | None -> (0.0, 0.0, 0.0)

let report_gc j =
  match J.member "gc" j with
  | Some (J.Arr [ J.Num a; J.Num b; J.Num c ]) -> (a, b, c)
  | _ -> (0.0, 0.0, 0.0)

(* In-process replay of connection 0's frames through parse, a fresh
   cold session and encode: the wire's share is rpc latency minus
   submit latency on the same frames. The session's drain follows. *)
let replay (script : S.request array) (res : conn_result) =
  let session = Serve.Session.create () in
  let bytes = ref 0 in
  let wire = ref [] and submit = ref [] in
  Array.iteri
    (fun i (r : S.request) ->
      bytes := !bytes + res.bytes.(i);
      match span "protocol.parse" (fun () -> P.parse_frame r.frame) with
      | Error _ -> ()
      | Ok req ->
        let t0 = now () in
        let payload = Serve.Session.submit session req.call in
        let dt = now () -. t0 in
        submit := dt :: !submit;
        wire := res.lat.(i) :: !wire;
        ignore (span "protocol.encode" (fun () -> P.ok_frame ~id:req.id payload)))
    script;
  let (), drain = timed (fun () -> Serve.Session.shutdown session) in
  let med l = median (Array.of_list l) in
  (med !wire *. 1e3 -. med !submit *. 1e6, med !submit *. 1e6, !bytes, drain *. 1e3)

let run (c : ctx) =
  let scripts = S.serve_script ~seed:c.seed ~seconds:c.seconds in
  let setups = Array.make probes 0.0 in
  let server = ref None in
  for k = 0 to probes - 1 do
    if k > 0 then Unix.sleepf probe_gap_s;
    let s, dt = start ~dir:c.dir ~k ~trace:false in
    setups.(k) <- dt;
    if k < probes - 1 then kill s else server := Some s
  done;
  (* The last set-up's server plays the first round; every later round
     gets a fresh server, so the result cache and the store start empty
     in each. *)
  let plays =
    List.init S.serve_rounds (fun r ->
        let s =
          if r = 0 then Option.get !server
          else fst (start ~dir:c.dir ~k:(probes + r) ~trace:false)
        in
        let results, window_s = play s scripts in
        let rss_mb = peak_rss_mb ~pid:(string_of_int s.pid) () in
        kill s;
        (results, window_s, rss_mb))
  in
  let rounds = List.map (fun (r, _, _) -> r) plays in
  (* Every play sends the same requests; the window is the median
     play's, so the work rate is the median of the plays' rates. *)
  let window_s = median (Array.of_list (List.map (fun (_, w, _) -> w) plays)) in
  let rss_mb = median (Array.of_list (List.map (fun (_, _, m) -> m) plays)) in
  let ok, attempted = check scripts rounds in
  let ops = flat scripts rounds in
  note "class-purity"
    (J.Obj
       [
         ("p50", class_purity ops 50.0);
         ("tail", class_purity ops S.serve_tail_pct);
       ]);
  let lat = Array.map snd ops in
  let pass =
    {
      work = float_of_int (Array.length lat);
      window_s;
      lat_ms = lat;
      ok;
      attempted;
    }
  in
  let layers =
    if not c.trace then []
    else begin
      let s, _ = start ~dir:c.dir ~k:(probes + S.serve_rounds) ~trace:true in
      let tres, twindow = play s scripts in
      (* The idle server writes its counters on SIGUSR1; it is then
         killed, since a drain would close and fsync its store. *)
      Unix.kill s.pid Sys.sigusr1;
      let deadline = now () +. 60.0 in
      while (not (Sys.file_exists s.report)) && now () < deadline do
        Unix.sleepf 0.01
      done;
      let rep = read_report s.report in
      kill s;
      let tlat = Array.concat (Array.to_list (Array.map (fun r -> r.lat) tres)) in
      let traced =
        {
          pass with
          work = float_of_int (Array.length tlat);
          window_s = twindow;
          lat_ms = tlat;
        }
      in
      let overhead_us, submit_us, bytes, drain_ms = replay scripts.(0) tres.(0) in
      let cnt = report_counter rep in
      let frames = float_of_int (Array.length tlat) in
      let errors =
        Array.fold_left
          (fun a (r : conn_result) ->
            Array.fold_left
              (fun a text -> if field text "error" <> None then a + 1 else a)
              a r.texts)
          0 tres
      in
      let qn, qs, qmax = report_hist rep "serve.queue_wait_ns" in
      let hits = cnt "memo.serve.results.hit"
      and misses = cnt "memo.serve.results.miss" in
      let mw, jw, mc = report_gc rep in
      let exec meth = span_median_us ("exec." ^ meth) in
      pool_solver_layers cnt
      @ store_cert_layers cnt
      @ [
        m "wire.overhead_us" "us" overhead_us;
        m "wire.frames" "count" frames;
        m "wire.frame_errors" "count" (float_of_int errors);
        m "protocol.parse_us" "us" (span_median_us "protocol.parse");
        m "protocol.encode_us" "us" (span_median_us "protocol.encode");
        m "protocol.reply_bytes" "bytes" (float_of_int bytes);
        m "session.submit_us" "us" submit_us;
        m "session.queue_wait_mean_ms" "ms" (ratio qs qn /. 1e6);
        m "session.queue_wait_max_ms" "ms" (qmax /. 1e6);
        m "session.batch_size" "count" (ratio (cnt "serve.requests") (cnt "serve.batches"));
        m "session.cache_hit_frac" "fraction" (ratio hits (hits +. misses));
        m "session.drain_ms" "ms" drain_ms;
        m "engine.exec_us.optimum" "us" (exec "optimum");
        m "engine.exec_us.sweep" "us" (exec "sweep");
        m "engine.exec_us.rank" "us" (exec "rank");
        m "engine.exec_us.certify" "us" (exec "certify");
        m "engine.exec_us.explore" "us" (exec "explore");
        m "gc.minor_words_per_work" "words" (mw /. frames);
        m "gc.major_words_per_work" "words" (jw /. frames);
        m "gc.major_collections" "count" mc;
        m "trace.overhead_pct" "%" (overhead_pct ~untraced:pass ~traced);
      ]
    end
  in
  (median setups, { pass; rss_mb; tail_pct = S.serve_tail_pct; layers })
