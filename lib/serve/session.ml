exception Shutting_down

type config = { jobs : int option; cache : bool; store : Store.t option }

let default_config = { jobs = None; cache = true; store = None }

(* Submitters block once this many requests are queued: overload slows
   clients down, nothing is dropped. *)
let max_queued = 64

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

let finalize job outcome =
  Mutex.lock job.jm;
  job.outcome <- Some outcome;
  Condition.signal job.jc;
  Mutex.unlock job.jm;
  Obs.Counter.incr c_replies

(* One pool task per job: it runs the call and replies to its own
   submitter the moment it finishes, never waiting on a batch-mate. The
   reply is [Engine.run_call] of the call alone, so co-batching changes
   scheduling only (see the .mli). The task traps its own exception into
   the reply, so [map] never raises here and one failing request cannot
   poison its batch. *)
let run_job t job =
  finalize job
    (try Ok (Engine.run_call ~pool:t.spool ?store:t.config.store job.call)
     with e -> Error e)

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
      ignore (Parallel.Pool.map ~pool:t.spool (run_job t) batch))

(* Empty the queue, oldest first. Caller holds [t.mutex]. *)
let take_all t =
  let jobs = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  jobs

let rec dispatcher_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.not_empty t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closing: drained *)
  else begin
    let batch = take_all t in
    Condition.broadcast t.not_full;
    Mutex.unlock t.mutex;
    execute_batch t batch;
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
  while (not t.closing) && Queue.length t.queue >= max_queued do
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
    let orphans = take_all t in
    Mutex.unlock t.mutex;
    List.iter (fun j -> finalize j (Error Shutting_down)) orphans;
    Parallel.Pool.shutdown t.spool;
    (* The session owns the store handle it was configured with: flush
       and release the lock so the next process starts warm. *)
    Option.iter Store.close t.config.store
  end
