(* The JSON and SARIF outputs are [Json] trees printed by
   [Json.to_string_pretty]. *)
open Json

let int n = Num (float_of_int n)

(* --- Text --- *)

let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")

let text ?(max_per_rule = max_int) (report : Engine.report) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (t : Engine.target) ->
      let e, w, i = Diagnostic.count t.diagnostics in
      Buffer.add_string buf
        (Printf.sprintf "== %s: %s, %s, %s\n" t.title (plural e "error")
           (plural w "warning") (plural i "info"));
      let shown : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let suppressed = ref [] in
      List.iter
        (fun (d : Diagnostic.t) ->
          let count =
            Option.value ~default:0 (Hashtbl.find_opt shown d.rule)
          in
          Hashtbl.replace shown d.rule (count + 1);
          if count < max_per_rule then
            Buffer.add_string buf
              (Printf.sprintf "  %-7s %-24s %s: %s%s\n"
                 (Diagnostic.severity_to_string d.severity)
                 d.rule
                 (Diagnostic.location_to_string d.location)
                 d.message
                 (match d.fix_hint with
                 | Some hint -> " (fix: " ^ hint ^ ")"
                 | None -> ""))
          else if not (List.mem_assoc d.rule !suppressed) then
            suppressed := (d.rule, ref 1) :: !suppressed
          else incr (List.assoc d.rule !suppressed))
        t.diagnostics;
      List.iter
        (fun (rule, n) ->
          Buffer.add_string buf
            (Printf.sprintf "  ... %s suppressed\n"
               (plural !n (rule ^ " finding"))))
        (List.rev !suppressed))
    report.targets;
  Buffer.add_string buf
    (Printf.sprintf "lint: %s, %s, %s, %s\n"
       (plural (List.length report.targets) "target")
       (plural report.errors "error")
       (plural report.warnings "warning")
       (plural report.infos "info"));
  Buffer.contents buf

(* --- JSON --- *)

let location_json = function
  | Diagnostic.Circuit_loc { circuit; cell; net } ->
    Obj
      (("kind", Str "circuit") :: ("circuit", Str circuit)
      :: List.filter_map
           (fun (k, v) -> Option.map (fun v -> (k, Str v)) v)
           [ ("cell", cell); ("net", net) ])
  | Diagnostic.Model_loc { model; parameter } ->
    Obj
      (("kind", Str "model") :: ("model", Str model)
      ::
      (match parameter with
      | Some p -> [ ("parameter", Str p) ]
      | None -> []))

let diagnostic_json (d : Diagnostic.t) =
  Obj
    ([
       ("rule", Str d.rule);
       ("severity", Str (Diagnostic.severity_to_string d.severity));
       ("location", location_json d.location);
       ("message", Str d.message);
     ]
    @ match d.fix_hint with Some h -> [ ("fixHint", Str h) ] | None -> [])

let report_json (report : Engine.report) =
  Obj
    [
      ( "targets",
        Arr
          (List.map
             (fun (t : Engine.target) ->
               Obj
                 [
                   ("title", Str t.title);
                   ("diagnostics", Arr (List.map diagnostic_json t.diagnostics));
                 ])
             report.targets) );
      ( "summary",
        Obj
          [
            ("errors", int report.errors);
            ("warnings", int report.warnings);
            ("infos", int report.infos);
            ("exitCode", int (Engine.exit_code report));
          ] );
    ]

let json report = to_string_pretty (report_json report)

(* --- SARIF 2.1.0 --- *)

let sarif_level = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

(* The family prefix of a rule id ("net", "model", "cert") — SARIF
   consumers group and filter on it via properties.category / tags. *)
let rule_category id =
  match String.index_opt id '.' with
  | Some i -> String.sub id 0 i
  | None -> id

(* Every rule is documented in DESIGN.md's rule catalog under a stable
   anchor derived from its id ("cert.eq13-seed" -> #rule-cert-eq13-seed). *)
let rule_help_uri (m : Rule.meta) =
  let anchor = String.map (fun c -> if c = '.' then '-' else c) m.id in
  "https://github.com/optpower/optpower/blob/main/DESIGN.md#rule-" ^ anchor

let sarif_rule (m : Rule.meta) =
  Obj
    [
      ("id", Str m.id);
      ("name", Str m.title);
      ("shortDescription", Obj [ ("text", Str m.title) ]);
      ("fullDescription", Obj [ ("text", Str m.guards) ]);
      ("helpUri", Str (rule_help_uri m));
      ("defaultConfiguration", Obj [ ("level", Str (sarif_level m.severity)) ]);
      ( "properties",
        Obj
          [
            ("category", Str (rule_category m.id));
            ("severity", Str (Diagnostic.severity_to_string m.severity));
            ( "tags",
              Arr [ Str "power-model"; Str (rule_category m.id) ] );
          ] );
    ]

let rule_index id =
  let rec go i = function
    | [] -> -1
    | (m : Rule.meta) :: rest -> if m.id = id then i else go (i + 1) rest
  in
  go 0 Rule.all

let sarif_result (d : Diagnostic.t) =
  Obj
    ([
       ("ruleId", Str d.rule);
       ("ruleIndex", int (rule_index d.rule));
       ("level", Str (sarif_level d.severity));
       ("message", Obj [ ("text", Str d.message) ]);
       ( "partialFingerprints",
         Obj [ ("optpowerDiagnostic/v1", Str (Diagnostic.fingerprint d)) ] );
       ( "locations",
         Arr
           [
             Obj
               [
                 ( "logicalLocations",
                   Arr
                     [
                       Obj
                         [
                           ( "name",
                             Str
                               (match d.location with
                               | Diagnostic.Circuit_loc { circuit; _ } ->
                                 circuit
                               | Diagnostic.Model_loc { model; _ } -> model) );
                           ( "fullyQualifiedName",
                             Str (Diagnostic.location_to_string d.location) );
                           ( "kind",
                             Str
                               (match d.location with
                               | Diagnostic.Circuit_loc _ -> "module"
                               | Diagnostic.Model_loc _ -> "parameter") );
                         ];
                     ] );
               ];
           ] );
     ]
    @
    match d.fix_hint with
    | Some h -> [ ("properties", Obj [ ("fixHint", Str h) ]) ]
    | None -> [])

let sarif ?(run_id = "optpower-lint/catalog") (report : Engine.report) =
  let results =
    List.concat_map
      (fun (t : Engine.target) -> List.map sarif_result t.diagnostics)
      report.targets
  in
  to_string_pretty
    (Obj
       [
         ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", Str "2.1.0");
         ( "runs",
           Arr
             [
               Obj
                 [
                   ("automationDetails", Obj [ ("id", Str run_id) ]);
                   ( "tool",
                     Obj
                       [
                         ( "driver",
                           Obj
                             [
                               ("name", Str "optpower-lint");
                               ("version", Str "1.0.0");
                               ( "informationUri",
                                 Str
                                   "https://github.com/optpower/optpower" );
                               ("rules", Arr (List.map sarif_rule Rule.all));
                             ] );
                       ] );
                   ("results", Arr results);
                 ];
             ] );
       ])
