(** Report renderers: plain text for terminals, a stable JSON encoding for
    scripting, and SARIF 2.1.0 for code-scanning UIs. All three are pure
    functions of the report — byte-identical across runs and pool sizes.
    The JSON and SARIF documents are {!Json.t} trees. *)

val text : ?max_per_rule:int -> Engine.report -> string
(** Per-target sections with one line per diagnostic
    ([severity rule location: message (hint)]). [max_per_rule] caps the
    lines printed per (target, rule) pair — remaining findings are
    summarised as a count (default: unlimited). *)

val report_json : Engine.report -> Json.t
(** [{ "targets": [...], "summary": {...} }] with every diagnostic field
    spelled out — the tree {!json} prints and the wire [lint] reply
    embeds. *)

val json : Engine.report -> string
(** {!report_json} through {!Json.to_string_pretty}. *)

val sarif : ?run_id:string -> Engine.report -> string
(** SARIF 2.1.0: one run with [automationDetails.id] (default
    ["optpower-lint/catalog"]), the full {!Rule.all} catalog as
    [tool.driver.rules] (id, description, default level), and one result
    per diagnostic with a logical location. *)
