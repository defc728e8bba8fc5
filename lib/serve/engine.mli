(** The pure request engine — the one-shot execution paths behind both the
    CLI subcommands and the resident service, extracted so the two are the
    same code (and so the serve tests can assert replies bitwise-equal to
    the one-shot results).

    Every function is deterministic: results are bitwise-identical at any
    pool size ({!Parallel.Pool}'s contract), and the JSON encoders print
    floats with full round-trip precision, so two encodings are equal iff
    the underlying float64 bits are. *)

val problem_of_label :
  Device.Technology.t -> string -> Power_core.Power_law.problem
(** Calibrated problem for a Table 1 label on a flavor (memoized
    process-wide by {!Power_core.Calibration}). @raise Not_found on an
    unknown label — callers validate via {!Protocol}. *)

val optimum :
  tech:Device.Technology.t -> string -> Power_core.Numerical_opt.point
(** Cold seeded solve of one architecture's optimal working point —
    exactly what the table drivers run per row. *)

val sweep :
  ?pool:Parallel.Pool.t ->
  tech:Device.Technology.t ->
  samples:int ->
  vdd_lo:float ->
  vdd_hi:float ->
  string ->
  Power_core.Numerical_opt.point list
(** Ptot(Vdd) locus for one architecture ({!Protocol.call}'s [Sweep]
    holds the defaults). *)

val rank :
  ?pool:Parallel.Pool.t ->
  tech:Device.Technology.t ->
  string list ->
  (string * Power_core.Numerical_opt.point) list
(** Solve the given architectures as one warm-start continuation family
    ({!Power_core.Numerical_opt.optima_continued}) and return them sorted
    by ascending optimal Ptot (ties keep the given order). *)

val lint :
  ?pool:Parallel.Pool.t -> ?only:string list -> unit ->
  Analysis.Engine.report
(** The [optpower lint] body: full engine run, optionally filtered to the
    given rule ids. *)

(** {1 Wire encodings}

    Shared by the serve handlers, the CLI [client] printer and the
    equivalence tests. *)

val point_json : Power_core.Numerical_opt.point -> Json.t

val optimum_json :
  tech:Device.Technology.t -> arch:string ->
  Power_core.Numerical_opt.point -> Json.t

val sweep_json :
  tech:Device.Technology.t -> arch:string ->
  Power_core.Numerical_opt.point list -> Json.t

val rank_json :
  tech:Device.Technology.t ->
  (string * Power_core.Numerical_opt.point) list -> Json.t

val lint_json : Analysis.Engine.report -> Json.t
(** The {!Analysis.Render.report_json} tree wrapped with the exit code. *)

val certify_json : Report.Certify_report.row list -> Json.t

val explore_json : Power_core.Explorer.result -> Json.t
(** Pareto fronts per slice plus the prune funnel totals. *)

val run_call : ?pool:Parallel.Pool.t -> ?store:Store.t -> Protocol.call -> Json.t
(** One-shot execution of a validated call: dispatch to the functions
    above ([certify] to {!Report.Certify_report.rows}, [explore] to
    {!Power_core.Explorer.explore} with the call's axes, [store_stats] to
    the store's live statistics, [{"enabled": false}] without one) and
    encode the reply payload. This is the reference the batched
    session must match bitwise — with the same [store] state, a warm
    reply replays the exact bits a cold solve would produce. *)
