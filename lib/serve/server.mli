(** JSON-lines socket front of the resident session (DESIGN.md §14).

    One systhread per connection reads request frames, submits them to the
    {!Session} and writes one reply line per frame {e in order} — per-client
    FIFO is a consequence of the handler being sequential. Malformed input
    (bad JSON, oversized or EOF-truncated frames, unknown methods, invalid
    parameters) always produces a structured error reply; nothing a client
    sends can crash or wedge the server. *)

val handle_connection : Session.t -> Unix.file_descr -> unit
(** Serve one already-connected stream until EOF, then close the
    descriptor. Exposed so tests can drive the full wire path over
    [socketpair]s without a listening socket. Oversized lines are
    discarded up to their terminating newline and answered with a
    [frame-error]; a final partial line (EOF before newline) is answered
    with a [frame-error] before closing. *)

type listener
(** A bound Unix-domain listening socket plus its accept thread. *)

val listen_unix : ?backlog:int -> Session.t -> path:string -> listener
(** Bind [path] (removing a stale socket file left by a dead server),
    start accepting. Sets SIGPIPE to ignored for the whole process, so a
    client that hangs up before its reply costs only that reply (the
    write fails with EPIPE) instead of killing the server.
    @raise Unix.Unix_error when the path is unusable or a live server
    already owns it. *)

val stop : listener -> unit
(** Ask the listener to shut down: stop accepting. The accept thread then
    joins every connection handler, drains the session ({!Session.shutdown})
    and unlinks the socket file. Returns immediately; {!wait} observes
    completion. Idempotent. *)

val wait : listener -> unit
(** Block until the listener has fully shut down (after {!stop}, or after
    a fatal accept error). *)
