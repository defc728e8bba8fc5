(* The serve layer: deterministic client-load harness over socketpairs,
   wire-protocol robustness (seeded round-trips plus adversarial frames),
   backpressure/batching/drain semantics, and the session-owned cache.

   The central claim under test: a reply produced by the batched resident
   session is bitwise-identical to the one-shot [Serve.Engine.run_call]
   for the same validated call, whatever the pool size, the number of
   concurrent clients or the batch composition. [Serve.Json.equal]
   compares numbers by their float64 bits, so "equal" below means
   bit-for-bit. *)

module Json = Serve.Json
module Protocol = Serve.Protocol
module Engine = Serve.Engine
module Session = Serve.Session
module Server = Serve.Server
module Client = Serve.Client

let labels =
  List.map
    (fun (r : Power_core.Paper_data.table1_row) -> r.label)
    Power_core.Paper_data.table1

let frame_of ~id meth params =
  Json.Obj
    [
      ("id", Json.Num (float_of_int id));
      ("method", Json.Str meth);
      ("params", Json.Obj params);
    ]

let call_of meth params =
  match Protocol.parse_frame (Json.to_string (frame_of ~id:0 meth params)) with
  | Ok (r : Protocol.request) -> r.call
  | Error (_, _, msg) -> Alcotest.failf "bad scripted call %s: %s" meth msg

let with_session ?autostart config f =
  let session = Session.create ?autostart ~config () in
  Fun.protect ~finally:(fun () -> Session.shutdown session) (fun () ->
      f session)

(* One wired client: a socketpair with a real [Server.handle_connection]
   thread on the far end, so requests traverse the full framing path. *)
let with_wire session f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler =
    Thread.create (fun () -> Server.handle_connection session a) ()
  in
  let client = Client.of_fd b in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Thread.join handler)
    (fun () -> f client)

let rec wait_for ?(tries = 500) msg pred =
  if pred () then ()
  else if tries = 0 then Alcotest.failf "timed out waiting for %s" msg
  else begin
    Thread.delay 0.01;
    wait_for ~tries:(tries - 1) msg pred
  end

(* The client script: all five request kinds, including a defaulted and an
   explicit-parameter variant and a >1-chunk rank (17 archs vs the chunk
   size of 16). *)
let script =
  [
    ("optimum", [ ("arch", Json.Str "RCA") ]);
    ("optimum", [ ("arch", Json.Str "Wallace"); ("tech", Json.Str "HS") ]);
    ("sweep", [ ("arch", Json.Str "RCA"); ("samples", Json.Num 7.0) ]);
    ( "rank",
      [
        ( "archs",
          Json.Arr
            (List.map
               (fun l -> Json.Str l)
               (labels @ [ "RCA"; "Wallace"; "Sequential"; "RCA" ])) );
      ] );
    ("rank", []);
    ("lint", [ ("only", Json.Arr [ Json.Str "model.finite" ]) ]);
    ("certify", [ ("tech", Json.Str "LL") ]);
  ]

let check_json msg expected actual =
  if not (Json.equal expected actual) then
    Alcotest.failf "%s: reply differs from one-shot\nwant %s\ngot  %s" msg
      (Json.to_string expected) (Json.to_string actual)

(* Client-load equivalence: N scripted clients against a session at the
   given pool size; every reply must be bitwise-equal to the one-shot
   engine result computed outside any session. *)
let test_wire_equivalence jobs () =
  let refs = List.map (fun (m, p) -> Engine.run_call (call_of m p)) script in
  let config =
    { Session.default_config with jobs = Some jobs; cache = false }
  in
  with_session config @@ fun session ->
  let nclients = 4 in
  let results = Array.make nclients [] in
  let run_client i () =
    with_wire session (fun c ->
        results.(i) <-
          List.map
            (fun (m, p) ->
              match Client.rpc c ~meth:m p with
              | Ok payload -> payload
              | Error (code, msg) ->
                Alcotest.failf "client %d %s: %s: %s" i m code msg)
            script)
  in
  let threads =
    List.init nclients (fun i -> Thread.create (run_client i) ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i replies ->
      List.iteri
        (fun k (expected, actual) ->
          check_json
            (Printf.sprintf "client %d call %d (-j %d)" i k jobs)
            expected actual)
        (List.combine refs replies))
    results

(* Per-client FIFO: pipeline many frames before reading any reply; the
   reply ids must come back in submission order. *)
let test_fifo_pipelined () =
  let config =
    { Session.default_config with jobs = Some 2; cache = false }
  in
  with_session config @@ fun session ->
  with_wire session @@ fun c ->
  let n = 10 in
  List.iteri
    (fun i label ->
      Client.send_line c
        (Json.to_string
           (frame_of ~id:i "optimum" [ ("arch", Json.Str label) ])))
    (List.filteri (fun i _ -> i < n) (labels @ labels));
  for i = 0 to n - 1 do
    match Client.recv_line c with
    | None -> Alcotest.failf "EOF before reply %d" i
    | Some line -> (
      match Json.parse line with
      | Error msg -> Alcotest.failf "reply %d unparseable: %s" i msg
      | Ok reply ->
        (match Json.member "id" reply with
        | Some (Json.Num id) ->
          Alcotest.(check int) "FIFO reply order" i (int_of_float id)
        | _ -> Alcotest.failf "reply %d has no numeric id" i);
        if Json.member "ok" reply = None then
          Alcotest.failf "reply %d is not ok: %s" i line)
  done

(* Cross-request batching: hold the dispatcher, enqueue several distinct
   requests, release — they run as one coalesced batch, and each reply is
   still bitwise-equal to its one-shot result. A co-batched [store_stats]
   is an ordinary job: on a cold session it answers [enabled:false]. *)
let test_batch_coalescing () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let calls =
    [
      call_of "optimum" [ ("arch", Json.Str "RCA") ];
      call_of "optimum" [ ("arch", Json.Str "Wallace") ];
      call_of "rank" [] ;
      call_of "sweep" [ ("arch", Json.Str "Sequential"); ("samples", Json.Num 5.0) ];
      call_of "store_stats" [];
    ]
  in
  let refs = List.map (fun c -> Engine.run_call c) calls in
  Obs.reset ();
  let config =
    { Session.default_config with jobs = Some 2; cache = false }
  in
  with_session ~autostart:false config @@ fun session ->
  let calls_arr = Array.of_list calls in
  let results = Array.make (Array.length calls_arr) None in
  let threads =
    Array.to_list
      (Array.mapi
         (fun i call ->
           Thread.create
             (fun () -> results.(i) <- Some (Session.submit session call))
             ())
         calls_arr)
  in
  wait_for "all requests queued" (fun () ->
      Session.pending session = Array.length calls_arr);
  Session.start session;
  List.iter Thread.join threads;
  List.iteri
    (fun i expected ->
      match results.(i) with
      | None -> Alcotest.failf "request %d never answered" i
      | Some actual ->
        check_json (Printf.sprintf "batched request %d" i) expected actual)
    refs;
  Alcotest.(check bool)
    "co-batched store_stats answers enabled:false" true
    (Option.bind results.(Array.length calls_arr - 1) (Json.member "enabled")
    = Some (Json.Bool false));
  Alcotest.(check int)
    "one coalesced batch" 1
    (Obs.counter_value "serve.batches");
  Alcotest.(check int)
    "all requests rode the batch" (Array.length calls_arr)
    (Obs.counter_value "serve.batched")

(* Backpressure soak: more submitters than the 64 queue slots block
   rather than drop; a clean drain leaves no queued request, no leaked
   pool task, and requests == replies. *)
let test_backpressure_and_drain () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let config =
    { Session.default_config with jobs = Some 2; cache = false }
  in
  let session = Session.create ~autostart:false ~config () in
  let capacity = 64 and n = 70 in
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let label = List.nth labels (i mod List.length labels) in
            let call = call_of "optimum" [ ("arch", Json.Str label) ] in
            results.(i) <- Some (Session.submit session call))
          ())
  in
  wait_for "queue at capacity" (fun () -> Session.pending session = capacity);
  (* Give the surplus submitters every chance to (wrongly) squeeze in. *)
  Thread.delay 0.05;
  Alcotest.(check int)
    "queue holds exactly its capacity" capacity (Session.pending session);
  Alcotest.(check int)
    "only queued requests counted accepted" capacity
    (Obs.counter_value "serve.requests");
  Session.start session;
  List.iter Thread.join threads;
  Array.iteri
    (fun i r -> if r = None then Alcotest.failf "request %d dropped" i)
    results;
  Session.shutdown session;
  Alcotest.(check int) "queue drained" 0 (Session.pending session);
  Alcotest.(check int)
    "no leaked pool tasks" 0
    (Parallel.Pool.pending (Session.pool session));
  Alcotest.(check int)
    "every accepted request answered"
    (Obs.counter_value "serve.requests")
    (Obs.counter_value "serve.replies");
  Alcotest.(check int) "all served" n (Obs.counter_value "serve.replies");
  (* Draining is terminal: new work is refused with the typed error. *)
  Alcotest.check_raises "submit after shutdown" Session.Shutting_down
    (fun () ->
      ignore (Session.submit session (call_of "optimum" [ ("arch", Json.Str "RCA") ])))

(* A client that hangs up before its reply must cost only that reply:
   the handler's write then fails with EPIPE, and the server (here, this
   test process) must survive it and keep serving. Client A's request is
   held in the queue while A closes its socket, so its reply is written
   to a dead peer once the session starts. *)
let test_client_hangup () =
  (* Default SIGPIPE disposition, whatever this process inherited: the
     listener itself must make the write survivable. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "optpower-test-serve.%d.sock" (Unix.getpid ()))
  in
  let config = { Session.default_config with jobs = Some 1; cache = false } in
  let session = Session.create ~autostart:false ~config () in
  let listener = Server.listen_unix session ~path in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    Client.of_fd fd
  in
  let call = [ ("arch", Json.Str "RCA") ] in
  let a = connect () in
  Client.send_line a (Json.to_string (frame_of ~id:1 "optimum" call));
  wait_for "the hung-up request queued" (fun () -> Session.pending session = 1);
  Client.close a;
  Session.start session;
  let b = connect () in
  (match Client.rpc b ~meth:"optimum" call with
  | Ok reply ->
    check_json "reply after a hang-up"
      (Engine.run_call (call_of "optimum" call))
      reply
  | Error (code, msg) -> Alcotest.failf "client B: %s: %s" code msg);
  Client.close b;
  Server.stop listener;
  Server.wait listener;
  Alcotest.(check int) "queue drained" 0 (Session.pending session);
  Alcotest.(check int)
    "no leaked pool tasks" 0
    (Parallel.Pool.pending (Session.pool session));
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* Regression: the session-owned result cache survives across requests — a
   second identical call is a memo hit and re-runs no solver work, even
   when the two frames differ in explicit-vs-defaulted parameters. *)
let test_session_cache_across_requests () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let config = { Session.default_config with jobs = Some 2 } in
  with_session config @@ fun session ->
  let call = call_of "optimum" [ ("arch", Json.Str "RCA") ] in
  let r1 = Session.submit session call in
  let solves = Obs.counter_value "opt.solves" in
  let hits = Obs.counter_value "memo.serve.results.hit" in
  let r2 = Session.submit session call in
  check_json "cached reply" r1 r2;
  Alcotest.(check int)
    "second identical request is a memo hit" (hits + 1)
    (Obs.counter_value "memo.serve.results.hit");
  Alcotest.(check int)
    "zero additional solves" solves
    (Obs.counter_value "opt.solves");
  (* Defaults are baked into the validated call: an explicit tech=LL frame
     is the same cache key as the defaulted one. *)
  let explicit =
    call_of "optimum" [ ("arch", Json.Str "RCA"); ("tech", Json.Str "LL") ]
  in
  let r3 = Session.submit session explicit in
  check_json "defaulted = explicit cache key" r1 r3;
  Alcotest.(check int)
    "explicit-parameter frame also hits" (hits + 2)
    (Obs.counter_value "memo.serve.results.hit");
  Alcotest.(check int)
    "still zero additional solves" solves
    (Obs.counter_value "opt.solves");
  let stats = Session.cache_stats session in
  Alcotest.(check int) "one cached entry" 1 stats.entries

(* Explore parameter plumbing: families and constraint caps parse into
   the validated call; bad values are invalid-params before any work. *)
let test_explore_params () =
  (match call_of "explore" [ ("families", Json.Str "dadda") ] with
  | Protocol.Explore e ->
    Alcotest.(check bool) "single family string" true
      (e.axes.families = [ Power_core.Explorer.Dadda ]);
    Alcotest.(check bool) "caps default to none" true
      (e.max_latency = None && e.max_area = None)
  | _ -> Alcotest.fail "not an explore call");
  (match
     call_of "explore"
       [
         ("families", Json.Arr [ Json.Str "booth"; Json.Str "wallace" ]);
         ("max_latency", Json.Num 12.5);
         ("max_area", Json.Num 4000.0);
       ]
   with
  | Protocol.Explore e ->
    Alcotest.(check bool) "family list" true
      (e.axes.families = [ Power_core.Explorer.Booth; Power_core.Explorer.Wallace ]);
    Alcotest.(check bool) "caps carried" true
      (e.max_latency = Some 12.5 && e.max_area = Some 4000.0)
  | _ -> Alcotest.fail "not an explore call");
  let invalid params =
    let line = Json.to_string (frame_of ~id:0 "explore" params) in
    match Protocol.parse_frame line with
    | Error (_, Protocol.Params, _) -> true
    | Ok _ | Error _ -> false
  in
  Alcotest.(check bool) "unknown family" true
    (invalid [ ("families", Json.Str "csa") ]);
  Alcotest.(check bool) "empty family list" true
    (invalid [ ("families", Json.Arr []) ]);
  Alcotest.(check bool) "negative latency cap" true
    (invalid [ ("max_latency", Json.Num (-1.0)) ]);
  Alcotest.(check bool) "zero area cap" true
    (invalid [ ("max_area", Json.Num 0.0) ]);
  (* NaN is unrepresentable in JSON: whether the reader rejects the
     literal or the cap guard rejects the value, the frame must error. *)
  Alcotest.(check bool) "NaN latency cap" true
    (match
       Protocol.parse_frame
         {|{"id":0,"method":"explore","params":{"max_latency":nan}}|}
     with
    | Error _ -> true
    | Ok _ -> false)

(* The store_stats method: [{"enabled": false}] on a cold session; live
   (never memoised) counters on a store-backed one. *)
let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let test_store_stats () =
  with_session { Session.default_config with jobs = Some 1 } (fun session ->
      let reply = Session.submit session (call_of "store_stats" []) in
      match Json.member "enabled" reply with
      | Some (Json.Bool false) -> ()
      | _ ->
        Alcotest.failf "cold session: expected enabled:false, got %s"
          (Json.to_string reply));
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "optpower-test-serve-store.%d" (Unix.getpid ()))
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let store = Power_core.Warm.open_store ~path:dir () in
  if store = None then Alcotest.fail "cannot open the test store";
  (* The session owns (and closes) the store handle. *)
  with_session { Session.default_config with jobs = Some 1; store }
  @@ fun session ->
  let stats () = Session.submit session (call_of "store_stats" []) in
  let num field reply =
    match Json.member field reply with
    | Some (Json.Num v) -> int_of_float v
    | _ ->
      Alcotest.failf "store_stats reply lacks %S: %s" field
        (Json.to_string reply)
  in
  let before = stats () in
  (match Json.member "enabled" before with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "store-backed session must report enabled:true");
  let explore =
    call_of "explore"
      [
        ("bits", Json.Num 4.0);
        ("families", Json.Str "booth");
        ("radices", Json.Arr [ Json.Num 4.0 ]);
        ("stages", Json.Arr [ Json.Num 1.0 ]);
        ("copies", Json.Arr [ Json.Num 1.0 ]);
        ("fmults", Json.Arr [ Json.Num 1.0 ]);
        ("tech", Json.Str "LL");
      ]
  in
  let explored = Session.submit session explore in
  let after = stats () in
  Alcotest.(check bool) "the exploration wrote through to the store" true
    (num "puts" after > num "puts" before);
  (* Live counters: the session memo is on, so if store_stats were
     cached the second reply would be a frozen copy of the first. *)
  Alcotest.(check bool) "stats are never memoised" true
    (num "entries" after >= num "entries" before
    && not (Json.equal before after));
  (* A warm replay through the same store (one-shot path, no session
     memo involved) answers with bitwise-identical fronts; only the
     funnel's store_hits / exact_solves split moves. *)
  Option.iter
    (fun st ->
      let warm = Engine.run_call ~store:st explore in
      let slices reply = Option.get (Json.member "slices" reply) in
      check_json "warm replay fronts = cold fronts" (slices explored)
        (slices warm);
      Alcotest.(check bool) "the replay was warm" true
        (num "store_hits" (Option.get (Json.member "totals" warm)) > 0))
    store

(* Wire JSON round-trips: 200 seeded random documents must survive
   print -> parse with every float64 bit intact. *)
let gen_json st =
  let gen_string () =
    let n = Random.State.int st 12 in
    String.init n (fun _ ->
        match Random.State.int st 6 with
        | 0 -> Char.chr (Random.State.int st 32) (* control chars *)
        | 1 -> '"'
        | 2 -> '\\'
        | 3 -> Char.chr (128 + Random.State.int st 128) (* high bytes *)
        | _ -> Char.chr (32 + Random.State.int st 95))
  in
  let gen_float () =
    match Random.State.int st 4 with
    | 0 -> float_of_int (Random.State.int st 1_000_000 - 500_000)
    | 1 -> Random.State.float st 2.0 -. 1.0
    | 2 -> ldexp (Random.State.float st 2.0 -. 1.0) (Random.State.int st 600 - 300)
    | _ -> Float.of_int (Random.State.int st 1000) /. 7.0
  in
  let rec gen depth =
    let cases = if depth >= 3 then 4 else 6 in
    match Random.State.int st cases with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool st)
    | 2 -> Json.Num (gen_float ())
    | 3 -> Json.Str (gen_string ())
    | 4 ->
      Json.Arr (List.init (Random.State.int st 5) (fun _ -> gen (depth + 1)))
    | _ ->
      Json.Obj
        (List.init (Random.State.int st 5) (fun _ ->
             (gen_string (), gen (depth + 1))))
  in
  gen 0

let test_json_roundtrip () =
  let st = Random.State.make [| 0xC0FFEE |] in
  for i = 1 to 200 do
    let doc = gen_json st in
    let s = Json.to_string doc in
    match Json.parse s with
    | Error msg -> Alcotest.failf "case %d: %S does not re-parse: %s" i s msg
    | Ok doc' ->
      if not (Json.equal doc doc') then
        Alcotest.failf "case %d: round-trip changed %S" i s
  done

(* The parser is total: random garbage returns Ok or Error, never raises
   and never hangs. *)
let test_json_fuzz_total () =
  let st = Random.State.make [| 0xBADF00D |] in
  for i = 1 to 200 do
    let n = Random.State.int st 64 in
    let s =
      String.init n (fun _ ->
          (* Bias toward structural bytes so nesting actually happens. *)
          match Random.State.int st 4 with
          | 0 -> [| '{'; '}'; '['; ']'; '"'; ','; ':' |].(Random.State.int st 7)
          | 1 -> [| 'n'; 't'; 'f'; 'e'; '-'; '+'; '.' |].(Random.State.int st 7)
          | 2 -> Char.chr (Random.State.int st 256)
          | _ -> [| '0'; '1'; '9'; ' '; '\\' |].(Random.State.int st 5))
    in
    match Json.parse s with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "case %d: parse %S raised %s" i s (Printexc.to_string e)
  done

(* Adversarial frames over the real wire: each must produce one structured
   error reply, after which the same connection still serves a valid
   request — never a crash, never a wedge. *)
let adversary_config = { Session.default_config with jobs = Some 1 }

let expect_error ~what c line expected_code =
  Client.send_line c line;
  match Client.recv_line c with
  | None -> Alcotest.failf "%s: connection died instead of replying" what
  | Some reply -> (
    match Json.parse reply with
    | Error msg -> Alcotest.failf "%s: unparseable reply %S: %s" what reply msg
    | Ok json -> (
      match Json.member "error" json with
      | Some err ->
        (match Json.member "code" err with
        | Some (Json.Str code) ->
          Alcotest.(check string) (what ^ ": error code") expected_code code
        | _ -> Alcotest.failf "%s: error without code" what);
        json
      | None -> Alcotest.failf "%s: expected error reply, got %S" what reply))

let expect_alive c =
  match Client.rpc c ~meth:"optimum" [ ("arch", Json.Str "RCA") ] with
  | Ok _ -> ()
  | Error (code, msg) ->
    Alcotest.failf "connection wedged after bad frame: %s: %s" code msg

let test_adversarial_frames () =
  with_session adversary_config @@ fun session ->
  with_wire session @@ fun c ->
  (* Not JSON at all. *)
  ignore (expect_error ~what:"garbage" c "hello there" "parse-error");
  expect_alive c;
  (* A frame that is valid JSON but not a request object. *)
  ignore (expect_error ~what:"non-object" c "[1,2,3]" "parse-error");
  (* NaN is not in the JSON grammar. *)
  ignore
    (expect_error ~what:"NaN payload" c
       {|{"id":1,"method":"sweep","params":{"arch":"RCA","vdd_lo":NaN}}|}
       "parse-error");
  (* An overflow literal parses to infinity and must be rejected by the
     finiteness validation, with the id recovered for correlation. *)
  let reply =
    expect_error ~what:"overflow literal" c
      {|{"id":77,"method":"sweep","params":{"arch":"RCA","vdd_lo":1e999}}|}
      "invalid-params"
  in
  (match Json.member "id" reply with
  | Some (Json.Num id) ->
    Alcotest.(check int) "recovered id" 77 (int_of_float id)
  | _ -> Alcotest.fail "invalid-params reply lost the request id");
  expect_alive c;
  (* Unknown method. *)
  ignore
    (expect_error ~what:"unknown method" c
       {|{"id":2,"method":"frobnicate","params":{}}|}
       "unknown-method");
  (* Unknown architecture and rule ids are invalid-params. *)
  ignore
    (expect_error ~what:"unknown arch" c
       {|{"id":3,"method":"optimum","params":{"arch":"CLA"}}|}
       "invalid-params");
  (* Stack-smashing nesting depth. *)
  ignore
    (expect_error ~what:"deep nesting" c
       (String.make 1000 '[')
       "parse-error");
  (* Oversized frame: discarded to its newline, answered, stream intact. *)
  ignore
    (expect_error ~what:"oversized frame" c
       (String.make (Protocol.max_frame_bytes + 1000) 'x')
       "frame-error");
  expect_alive c;
  (* Empty lines are skipped, not answered: the next reply must belong to
     the valid request pipelined right behind one. *)
  Client.send_line c "";
  Client.send_line c
    (Json.to_string (frame_of ~id:123 "optimum" [ ("arch", Json.Str "RCA") ]));
  (match Client.recv_line c with
  | Some line -> (
    match Json.parse line with
    | Ok reply -> (
      match Json.member "id" reply with
      | Some (Json.Num id) ->
        Alcotest.(check int) "empty line skipped" 123 (int_of_float id)
      | _ -> Alcotest.fail "reply without id")
    | Error msg -> Alcotest.failf "unparseable reply: %s" msg)
  | None -> Alcotest.fail "EOF after empty line")

(* EOF in the middle of a frame: one structured frame-error, then close. *)
let test_truncated_frame () =
  with_session adversary_config @@ fun session ->
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler =
    Thread.create (fun () -> Server.handle_connection session a) ()
  in
  let partial = {|{"id":9,"method":"optimum","params":{"arch|} in
  ignore (Unix.write_substring b partial 0 (String.length partial));
  Unix.shutdown b Unix.SHUTDOWN_SEND;
  let c = Client.of_fd b in
  (match Client.recv_line c with
  | None -> Alcotest.fail "no reply for truncated frame"
  | Some line -> (
    match Json.parse line with
    | Ok reply -> (
      match Json.member "error" reply with
      | Some err ->
        (match Json.member "code" err with
        | Some (Json.Str code) ->
          Alcotest.(check string) "truncated frame code" "frame-error" code
        | _ -> Alcotest.fail "error without code")
      | None -> Alcotest.failf "expected error, got %S" line)
    | Error msg -> Alcotest.failf "unparseable reply: %s" msg));
  Alcotest.(check bool) "connection closed after EOF" true
    (Client.recv_line c = None);
  Thread.join handler;
  Client.close c

let () =
  Alcotest.run "serve"
    [
      ( "equivalence",
        [
          Alcotest.test_case "scripted clients, -j 1" `Slow
            (test_wire_equivalence 1);
          Alcotest.test_case "scripted clients, -j 4" `Slow
            (test_wire_equivalence 4);
          Alcotest.test_case "pipelined FIFO replies" `Quick
            test_fifo_pipelined;
          Alcotest.test_case "cross-request batch coalescing" `Quick
            test_batch_coalescing;
        ] );
      ( "session",
        [
          Alcotest.test_case "backpressure blocks, drain is clean" `Quick
            test_backpressure_and_drain;
          Alcotest.test_case "result cache survives across requests" `Quick
            test_session_cache_across_requests;
          Alcotest.test_case "server survives a client hang-up"
            `Quick test_client_hangup;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "explore families and caps" `Quick
            test_explore_params;
          Alcotest.test_case "store_stats method" `Quick test_store_stats;
          Alcotest.test_case "200 seeded JSON round-trips" `Quick
            test_json_roundtrip;
          Alcotest.test_case "parser is total on fuzz input" `Quick
            test_json_fuzz_total;
          Alcotest.test_case "adversarial frames" `Quick
            test_adversarial_frames;
          Alcotest.test_case "EOF-truncated frame" `Quick
            test_truncated_frame;
        ] );
    ]
