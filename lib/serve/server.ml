let c_connections = Obs.Counter.make "serve.connections"
let c_frames = Obs.Counter.make "serve.frames"
let c_frame_errors = Obs.Counter.make "serve.frame_errors"

let write_line fd s =
  let line = s ^ "\n" in
  let rec w off len =
    if len > 0 then begin
      let n = Unix.write_substring fd line off len in
      w (off + n) (len - n)
    end
  in
  (* A client that hung up mid-reply is its own problem (EPIPE, with
     SIGPIPE ignored by [listen_unix]); the handler just keeps draining
     its remaining input. *)
  try w 0 (String.length line) with Unix.Unix_error _ -> ()

let handle_connection session fd =
  let reply_error ~id code msg =
    Obs.Counter.incr c_frame_errors;
    write_line fd (Protocol.error_frame ~id code msg)
  in
  let handle_line line =
    Obs.Counter.incr c_frames;
    if String.trim line = "" then ()
    else
      match Protocol.parse_frame line with
      | Error (id, code, msg) -> reply_error ~id code msg
      | Ok { id; call } -> (
        match Session.submit session call with
        | payload -> write_line fd (Protocol.ok_frame ~id payload)
        | exception Session.Shutting_down ->
          reply_error ~id Protocol.Shutdown "session is draining"
        | exception e ->
          reply_error ~id Protocol.Internal (Printexc.to_string e))
  in
  let chunk = Bytes.create 8192 in
  let acc = Buffer.create 256 in
  (* When a line overruns the frame cap we stop buffering it and remember
     only that it did — the reply waits for its terminating newline so the
     stream stays framed. *)
  let oversized = ref false in
  let oversize_msg =
    Printf.sprintf "frame exceeds %d bytes" Protocol.max_frame_bytes
  in
  let on_newline () =
    if !oversized then begin
      Obs.Counter.incr c_frames;
      oversized := false;
      write_line fd (Protocol.error_frame ~id:Json.Null Protocol.Frame
                       oversize_msg);
      Obs.Counter.incr c_frame_errors
    end
    else begin
      let line = Buffer.contents acc in
      handle_line line
    end;
    Buffer.clear acc
  in
  let on_eof () =
    if !oversized then begin
      Obs.Counter.incr c_frames;
      reply_error ~id:Json.Null Protocol.Frame oversize_msg
    end
    else if Buffer.length acc > 0 then begin
      Obs.Counter.incr c_frames;
      reply_error ~id:Json.Null Protocol.Frame
        "truncated frame (connection closed before newline)"
    end
  in
  let rec pump () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> on_eof ()
    | n ->
      for i = 0 to n - 1 do
        let c = Bytes.get chunk i in
        if c = '\n' then on_newline ()
        else if not !oversized then begin
          Buffer.add_char acc c;
          if Buffer.length acc > Protocol.max_frame_bytes then begin
            oversized := true;
            Buffer.clear acc
          end
        end
      done;
      pump ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
    | exception Unix.Unix_error _ -> ()
  in
  pump ();
  try Unix.close fd with Unix.Unix_error _ -> ()

type listener = {
  session : Session.t;
  lfd : Unix.file_descr;
  path : string;
  mutable accept_thread : Thread.t option;
  mutex : Mutex.t;
  mutable conns : Thread.t list;
  mutable stopping : bool;
}

let stopping l =
  Mutex.lock l.mutex;
  let s = l.stopping in
  Mutex.unlock l.mutex;
  s

let finish l =
  (* Runs on the accept thread once accepting has ended: let every
     in-flight connection finish, then drain the session and remove the
     socket file. *)
  (try Unix.close l.lfd with Unix.Unix_error _ -> ());
  let conns =
    Mutex.lock l.mutex;
    let c = l.conns in
    l.conns <- [];
    Mutex.unlock l.mutex;
    c
  in
  List.iter Thread.join conns;
  Session.shutdown l.session;
  (try Unix.unlink l.path with Unix.Unix_error _ -> ())

let rec accept_loop l =
  if stopping l then finish l
  else
    match Unix.accept l.lfd with
    | fd, _ ->
      if stopping l then begin
        (* The wake-up connection from [stop], or a client racing the
           shutdown: either way accepting is over. *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        finish l
      end
      else begin
        Obs.Counter.incr c_connections;
        let th = Thread.create (fun () -> handle_connection l.session fd) () in
        Mutex.lock l.mutex;
        l.conns <- th :: l.conns;
        Mutex.unlock l.mutex;
        accept_loop l
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop l
    | exception Unix.Unix_error _ ->
      (* [stop] shut the listener down, or a fatal socket error: wind
         down either way. *)
      finish l

let listen_unix ?(backlog = 64) session ~path =
  (* A client that hangs up before its reply must not take the process
     down: with SIGPIPE at its default action the handler's write would
     kill the server before [write_line] could see the EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Refuse to clobber a live server; remove a stale socket file. *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
      Unix.close probe;
      raise
        (Unix.Unix_error (Unix.EADDRINUSE, "listen_unix", path))
    | exception Unix.Unix_error _ ->
      Unix.close probe;
      Unix.unlink path)
  | _ -> raise (Unix.Unix_error (Unix.EEXIST, "listen_unix", path))
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind lfd (Unix.ADDR_UNIX path);
     Unix.listen lfd backlog
   with e ->
     Unix.close lfd;
     raise e);
  let l =
    {
      session;
      lfd;
      path;
      accept_thread = None;
      mutex = Mutex.create ();
      conns = [];
      stopping = false;
    }
  in
  l.accept_thread <- Some (Thread.create accept_loop l);
  l

let stop l =
  Mutex.lock l.mutex;
  let first = not l.stopping in
  l.stopping <- true;
  Mutex.unlock l.mutex;
  if first then begin
    (* Closing the descriptor would NOT unblock a thread already parked in
       accept(2) on Linux; shutting the listening socket down does, and a
       throwaway self-connection covers platforms where that shutdown is a
       no-op. The accept thread owns the close. *)
    (try Unix.shutdown l.lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX l.path)
       with Unix.Unix_error _ -> ());
      Unix.close fd
    with Unix.Unix_error _ -> ()
  end

let wait l = Option.iter Thread.join l.accept_thread
