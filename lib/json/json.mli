(** Minimal JSON — zero dependencies, total parser. The one JSON reader,
    printer and escaper of the project; its users are the wire protocol
    ([Serve], one value per JSON-lines frame, re-exported as
    [Serve.Json]), the lint renderers ([Analysis.Render]: JSON and SARIF),
    the Chrome trace ([Obs.Report.chrome_trace]) and the bench harness's
    [BENCH_RESULTS.json] writer and baseline reader.

    A wire frame holds no newline. This module guarantees two properties
    the protocol tests rely on:

    - {b Round trip.} [parse (to_string v)] succeeds and the result is
      {!equal} to [v] — numbers are printed with enough digits ([%.17g])
      that every float64 bit survives, so a reply built from solver output
      re-reads to the identical bits.
    - {b Totality.} [parse] never raises and never loops: malformed input,
      deeply nested input (depth capped) and non-finite number literals
      ([NaN], [Infinity] — invalid JSON) all return [Error]. Numeric
      {e overflow} (["1e999"]) parses to [infinity]; rejecting non-finite
      payloads is the protocol layer's job ([Serve.Protocol]), not the
      grammar's. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines, ever — it must stay one
    frame). Integral numbers within the exact-float64 range print without
    an exponent or decimal point; everything else uses [%.17g].
    @raise Invalid_argument on a non-finite {!Num} — the protocol never
    emits NaN/Infinity. *)

val to_string_pretty : t -> string
(** Indented rendering for files and terminals: two spaces per level, one
    member or element per line, ["key": value], empty containers as [{}]
    and [[]], a final newline. Strings and numbers print exactly as in
    {!to_string}, so [parse (to_string_pretty v)] is {!equal} to [v].
    @raise Invalid_argument on a non-finite {!Num}. *)

val equal : t -> t -> bool
(** Structural equality; numbers compare by bit pattern (so [nan = nan]
    and [0.0 <> -0.0] — exactly the round-trip notion). Object fields
    compare in order: the printer preserves field order, so round-tripped
    values match without sorting. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else or when absent. *)
