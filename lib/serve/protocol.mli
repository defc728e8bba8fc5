(** The wire protocol of [optpower serve] — JSON-lines request/reply
    framing (DESIGN.md §14).

    One request per line, one reply line per request, in order:

    {v
    -> {"id":1,"method":"optimum","params":{"arch":"RCA","tech":"LL"}}
    <- {"id":1,"ok":{"method":"optimum","arch":"RCA","tech":"LL", ...}}
    -> {"id":2,"method":"nope"}
    <- {"id":2,"error":{"code":"unknown-method","message":"..."}}
    v}

    Every malformed frame yields a {e structured error reply} with a
    stable [code]; the session is never crashed or wedged by input. The
    parsed {!call} carries fully validated, defaulted parameters, so
    everything past this layer is total. *)

type error_code =
  | Parse  (** Frame is not valid JSON, or not a request object. *)
  | Frame  (** Frame exceeds {!max_frame_bytes} or was truncated by EOF. *)
  | Unknown_method
  | Params  (** Unknown architecture/technology/rule, non-finite or
                out-of-range numeric parameter, wrong type. *)
  | Shutdown  (** Session is draining; request was not accepted. *)
  | Internal

val code_string : error_code -> string
(** Stable wire names: ["parse-error"], ["frame-error"],
    ["unknown-method"], ["invalid-params"], ["shutting-down"],
    ["internal-error"]. *)

(** A validated request body. Parameter defaults are baked in here so that
    two frames differing only in explicit-vs-defaulted parameters are the
    {e same} call (and hit the same session cache entry). *)
type call =
  | Optimum of { tech : Device.Technology.t; arch : string }
  | Sweep of {
      tech : Device.Technology.t;
      arch : string;
      samples : int;  (** In [2, {!max_sweep_samples}]; default 25. *)
      vdd_lo : float;  (** Default 0.25 V. *)
      vdd_hi : float;  (** Default 1.2 V. *)
    }
  | Rank of { tech : Device.Technology.t; archs : string list }
      (** [archs] defaults to the full Table 1 catalog. *)
  | Lint of { only : string list option }
  | Certify of { flavors : Device.Technology.t list }
      (** Defaults to all three flavors. *)
  | Explore of {
      axes : Power_core.Explorer.axes;
          (** From ["bits"] (even, in [4, 16]), ["families"] (a name or
              array of names among ["booth"], ["dadda"], ["wallace"]),
              ["radices"] (subset of {2, 4, 8}), ["stages"], ["copies"],
              ["signed"], ["fmults"] (all > 0) and ["tech"] (one flavor
              or ["all"]); each absent axis takes its
              {!Power_core.Explorer.default_axes} value, and ["signed"]
              [true] selects signed operands. *)
      prune : bool;  (** Default true; [false] forces exhaustive solves. *)
      max_latency : float option;
          (** Optional effective-logical-depth cap; must be finite > 0
              (NaN and negatives are [invalid-params]). *)
      max_area : float option;  (** Optional cell-count cap; same rules. *)
    }
      (** Design-space exploration ({!Power_core.Explorer.explore});
          the axes may enumerate at most {!max_explore_candidates}. *)
  | Store_stats
      (** Warm-store statistics of the serving process (entries, hit and
          put counts, mode, fingerprint); no parameters. *)

type request = { id : Json.t; call : call }
(** [id] is echoed verbatim in the reply ([Null] when absent). *)

val max_frame_bytes : int
(** Longest accepted request frame (bytes, newline excluded): 65536. *)

val max_sweep_samples : int
(** Upper bound on [sweep.samples] (16384) — a service-side sanity cap. *)

val max_explore_candidates : int
(** Upper bound on the candidate count an [explore] request's axes may
    enumerate (4096) — a service-side sanity cap. *)

val call_of_params :
  string -> Json.t -> (call, error_code * string) result
(** [call_of_params meth params] validates one request body: [meth] a
    method name, [params] its parameter object. This is the one request
    grammar: the service parses every frame through it, and the CLI's
    request subcommands build [params] from their flags and parse them
    here too, so both accept exactly the same requests. Errors are
    [Unknown_method] or [Params] with a human-readable message. *)

val parse_frame :
  string -> (request, Json.t * error_code * string) result
(** Parse and validate one frame. The error carries the request id when
    one could be recovered from the malformed frame (so the client can
    still correlate), [Null] otherwise. *)

val method_name : call -> string

val ok_frame : id:Json.t -> Json.t -> string
(** [{"id":<id>,"ok":<payload>}] — no trailing newline. *)

val error_frame : id:Json.t -> error_code -> string -> string
(** [{"id":<id>,"error":{"code":...,"message":...}}] — no newline. *)
