exception Shutting_down

type config = {
  jobs : int option;
  queue_capacity : int;
  max_batch : int;
  cache : bool;
  store : Store.t option;
}

let default_config =
  { jobs = None; queue_capacity = 64; max_batch = 32; cache = true;
    store = None }

(* Deterministic per-workload counters keep the default category; batch
   composition and queue residency depend on wall-clock timing, so those
   carry "sched" and stay out of normalized profiles. *)
let c_requests = Obs.Counter.make "serve.requests"
let c_replies = Obs.Counter.make "serve.replies"
let c_batches = Obs.Counter.make ~cat:"sched" "serve.batches"
let c_batched = Obs.Counter.make ~cat:"sched" "serve.batched"
let h_queue_wait = Obs.Hist.make ~cat:"sched" "serve.queue_wait_ns"

type job = {
  call : Protocol.call;
  enqueued_at : float;
  jm : Mutex.t;
  jc : Condition.t;
  mutable outcome : (Json.t, exn) result option;
}

type t = {
  config : config;
  spool : Parallel.Pool.t;
  mutex : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  queue : job Queue.t;
  mutable closing : bool;
  mutable dispatcher : Thread.t option;
  mutable memo : (Protocol.call, Json.t) Parallel.Memo.t option;
}

(* A batch is planned as a flat list of work units — one per request, none
   for [store_stats] — each writing into its own result cell, plus one
   [finish] closure per request that reads the reply from its cell. Units
   are a pure function of their request alone — never of what else is in
   the batch — which is what makes the batched replies bitwise-equal to
   the one-shot paths (see the .mli). *)

let guard f = try Ok (f ()) with e -> Error e

(* A unit that runs [f] into its own cell, and the reader of that cell:
   the unit's exception, if any, re-raises at read time. *)
let deferred f =
  let cell = ref None in
  ( (fun () -> cell := Some (guard f)),
    fun () ->
      match !cell with
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> failwith "Serve.Session: work unit never ran" )

let plan ?store pool (call : Protocol.call) =
  match call with
  | Protocol.Store_stats ->
    (* Pure introspection: no pool work, assembled at finish time so the
       reply reflects the store state after the co-batched work ran. *)
    ([], fun () -> Engine.store_stats_json store)
  | _ ->
    let run, reply = deferred (fun () -> Engine.run_call ~pool ?store call) in
    ([ run ], reply)

let finalize job outcome =
  Mutex.lock job.jm;
  job.outcome <- Some outcome;
  Condition.signal job.jc;
  Mutex.unlock job.jm;
  Obs.Counter.incr c_replies

let execute_batch t batch =
  if Obs.enabled () then begin
    Obs.Counter.incr c_batches;
    (match batch with
    | _ :: _ :: _ -> Obs.Counter.add c_batched (List.length batch)
    | _ -> ());
    let now = Obs.now_ns () in
    List.iter
      (fun job -> Obs.Hist.observe h_queue_wait (now -. job.enqueued_at))
      batch
  end;
  Obs.Span.with_ ~name:"serve.batch" (fun () ->
      let plans =
        List.map
          (fun job -> (job, plan ?store:t.config.store t.spool job.call))
          batch
      in
      let units = List.concat_map (fun (_, (units, _)) -> units) plans in
      (* All units of all co-batched requests go through one pool dispatch;
         each unit traps its own exception into its cell, so [map] never
         raises here and one failing request cannot poison its batch. *)
      ignore (Parallel.Pool.map ~pool:t.spool (fun u -> u ()) units);
      List.iter
        (fun (job, (_, finish)) -> finalize job (guard finish))
        plans)

let rec dispatcher_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.not_empty t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closing: drained *)
  else begin
    let batch = ref [] in
    let taken = ref 0 in
    while (not (Queue.is_empty t.queue)) && !taken < t.config.max_batch do
      batch := Queue.pop t.queue :: !batch;
      incr taken
    done;
    Condition.broadcast t.not_full;
    Mutex.unlock t.mutex;
    execute_batch t (List.rev !batch);
    dispatcher_loop t
  end

let enqueue_and_wait t call =
  let job =
    {
      call;
      enqueued_at = Obs.now_ns ();
      jm = Mutex.create ();
      jc = Condition.create ();
      outcome = None;
    }
  in
  Mutex.lock t.mutex;
  while
    (not t.closing) && Queue.length t.queue >= t.config.queue_capacity
  do
    Condition.wait t.not_full t.mutex
  done;
  if t.closing then begin
    Mutex.unlock t.mutex;
    raise Shutting_down
  end;
  Queue.push job t.queue;
  Obs.Counter.incr c_requests;
  Condition.signal t.not_empty;
  Mutex.unlock t.mutex;
  Mutex.lock job.jm;
  while Option.is_none job.outcome do
    Condition.wait job.jc job.jm
  done;
  Mutex.unlock job.jm;
  match Option.get job.outcome with Ok v -> v | Error e -> raise e

let start t =
  Mutex.lock t.mutex;
  let spawn = (not t.closing) && Option.is_none t.dispatcher in
  if spawn then t.dispatcher <- Some (Thread.create dispatcher_loop t);
  Mutex.unlock t.mutex

let create ?(autostart = true) ?(config = default_config) () =
  if config.queue_capacity < 1 then
    invalid_arg "Serve.Session.create: queue_capacity < 1";
  if config.max_batch < 1 then
    invalid_arg "Serve.Session.create: max_batch < 1";
  let t =
    {
      config;
      spool = Parallel.Pool.create ?jobs:config.jobs ();
      mutex = Mutex.create ();
      not_full = Condition.create ();
      not_empty = Condition.create ();
      queue = Queue.create ();
      closing = false;
      dispatcher = None;
      memo = None;
    }
  in
  t.memo <-
    Some
      (Parallel.Memo.create ~name:"serve.results" (fun call ->
           enqueue_and_wait t call));
  if autostart then start t;
  t

let submit t call =
  match call with
  | Protocol.Store_stats ->
    (* Never memoised: the whole point is the live counters. *)
    enqueue_and_wait t call
  | _ ->
    if t.config.cache then Parallel.Memo.find (Option.get t.memo) call
    else enqueue_and_wait t call

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let pool t = t.spool

let cache_stats t = Parallel.Memo.stats (Option.get t.memo)

let shutdown t =
  Mutex.lock t.mutex;
  if t.closing then Mutex.unlock t.mutex
  else begin
    t.closing <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    let d = t.dispatcher in
    t.dispatcher <- None;
    Mutex.unlock t.mutex;
    Option.iter Thread.join d;
    (* Never-started session: fail whatever is still queued so no waiter
       hangs. With a dispatcher this queue is empty — it drains fully
       before exiting. *)
    Mutex.lock t.mutex;
    let orphans = ref [] in
    Queue.iter (fun j -> orphans := j :: !orphans) t.queue;
    Queue.clear t.queue;
    Mutex.unlock t.mutex;
    List.iter (fun j -> finalize j (Error Shutting_down)) !orphans;
    Parallel.Pool.shutdown t.spool;
    (* The session owns the store handle it was configured with: flush
       and release the lock so the next process starts warm. *)
    Option.iter Store.close t.config.store
  end
