(** The resident solve session — the engine-ownership layer behind
    [optpower serve] (DESIGN.md §14).

    A session owns, for the process lifetime, everything the one-shot CLI
    rebuilds per invocation: the domain pool, the calibration and
    linearisation memo tables it warms as a side effect of solving, and a
    result cache keyed by validated {!Protocol.call}. Requests from any
    number of threads funnel through a bounded queue into a single
    dispatcher, which takes everything queued and runs it through one
    {!Parallel.Pool.map}: {e one pool task per request}, and each task
    hands its reply to its own submitter the moment it finishes — a
    cheap request never waits for a slow batch-mate.

    {b Bitwise equality.} A request's task is {!Engine.run_call} of that
    request alone on the session pool (a [rank] of more than 16
    architectures maps its continuation chains through that pool from
    inside its task). Co-batched requests share only the pool dispatch,
    never a warm-start chain, so every reply is bitwise-identical to
    {!Engine.run_call} on an idle process, whatever the batch composition
    or pool size. The one timing-dependent reply is [store_stats], which
    reads the store's counters live when its task runs.

    {b Backpressure.} {!submit} blocks while 64 requests are queued —
    overload slows clients down; nothing is ever dropped.

    {b Observability.} [serve.requests] / [serve.replies] count accepted
    and answered requests (equal after a clean drain); [serve.batches],
    [serve.batched] and the [serve.queue_wait_ns] histogram carry the
    ["sched"] category because batch composition depends on timing. *)

exception Shutting_down
(** Raised by {!submit} when the session is draining — maps to the
    [shutting-down] wire error. *)

type config = {
  jobs : int option;  (** Session pool size; [None] = the default size. *)
  cache : bool;  (** Memoise replies by call (default [true]). *)
  store : Store.t option;
      (** Warm store opened once per process and owned by the session
          ({!shutdown} closes it): [explore] answers warm after a
          restart, and [store_stats] reports it (that call
          bypasses the result cache — its counters are live). Default
          [None] (cold). *)
}

val default_config : config

type t

val create : ?autostart:bool -> ?config:config -> unit -> t
(** Build a session and (unless [autostart:false]) start its dispatcher.
    [autostart:false] lets tests enqueue several requests first and then
    {!start}, making a [>1]-request batch deterministic. *)

val start : t -> unit
(** Start the dispatcher thread. Idempotent; no-op after {!shutdown}. *)

val submit : t -> Protocol.call -> Json.t
(** Execute a validated call and return its reply payload (the [ok] field).
    Blocks for backpressure and for the result. Thread-safe; replies to
    one thread's successive submits are produced in submission order.
    @raise Shutting_down when the session no longer accepts work. *)

val pending : t -> int
(** Requests currently queued (not yet picked up by the dispatcher). *)

val pool : t -> Parallel.Pool.t
(** The session-owned pool — exposed for the drain assertion
    ([Pool.pending] = 0) and for tests. *)

val cache_stats : t -> Parallel.Memo.stats
(** Hit/miss/entry counts of the session result cache. *)

val shutdown : t -> unit
(** Graceful drain: stop accepting new work ({!submit} raises
    {!Shutting_down}), finish every queued request, join the dispatcher,
    shut the pool down. Idempotent. *)
