type error_code =
  | Parse
  | Frame
  | Unknown_method
  | Params
  | Shutdown
  | Internal

let code_string = function
  | Parse -> "parse-error"
  | Frame -> "frame-error"
  | Unknown_method -> "unknown-method"
  | Params -> "invalid-params"
  | Shutdown -> "shutting-down"
  | Internal -> "internal-error"

type call =
  | Optimum of { tech : Device.Technology.t; arch : string }
  | Sweep of {
      tech : Device.Technology.t;
      arch : string;
      samples : int;
      vdd_lo : float;
      vdd_hi : float;
    }
  | Rank of { tech : Device.Technology.t; archs : string list }
  | Lint of { only : string list option }
  | Certify of { flavors : Device.Technology.t list }
  | Explore of {
      axes : Power_core.Explorer.axes;
      prune : bool;
      max_latency : float option;
      max_area : float option;
    }
  | Store_stats

type request = { id : Json.t; call : call }

let max_frame_bytes = 65536
let max_sweep_samples = 16384
let max_explore_candidates = 4096

let method_name = function
  | Optimum _ -> "optimum"
  | Sweep _ -> "sweep"
  | Rank _ -> "rank"
  | Lint _ -> "lint"
  | Certify _ -> "certify"
  | Explore _ -> "explore"
  | Store_stats -> "store_stats"

(* Validation helpers: every failure raises [Invalid Params] with a
   message; [call_of_params] catches it and returns the error pair. *)

exception Invalid of error_code * string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid (Params, m))) fmt

let catalog_labels =
  List.map
    (fun (r : Power_core.Paper_data.table1_row) -> r.label)
    Power_core.Paper_data.table1

let arch_of_json = function
  | Some (Json.Str label) ->
    if List.mem label catalog_labels then label
    else invalid "unknown architecture %S (see Table 1 labels)" label
  | Some _ -> invalid "\"arch\" must be a string"
  | None -> invalid "missing required parameter \"arch\""

let tech_of_string = function
  | "ULL" -> Device.Technology.ull
  | "LL" -> Device.Technology.ll
  | "HS" -> Device.Technology.hs
  | s -> invalid "unknown technology %S (expected ULL, LL or HS)" s

let tech_of_json = function
  | None -> Device.Technology.ll
  | Some (Json.Str s) -> tech_of_string s
  | Some _ -> invalid "\"tech\" must be a string"

(* certify and explore take one flavor or "all", the default. *)
let flavors_of_json = function
  | None | Some (Json.Str "all") -> Device.Technology.all
  | Some (Json.Str s) -> [ tech_of_string s ]
  | Some _ -> invalid "\"tech\" must be a string"

let finite_number name = function
  | Json.Num v when Float.is_finite v -> v
  | Json.Num _ -> invalid "%S must be finite" name
  | _ -> invalid "%S must be a number" name

let int_param name ~default ~min ~max params =
  match Json.member name params with
  | None -> default
  | Some j ->
    let v = finite_number name j in
    if Float.is_integer v && v >= float_of_int min && v <= float_of_int max
    then int_of_float v
    else invalid "%S must be an integer in [%d, %d]" name min max

let float_param name ~default params =
  match Json.member name params with
  | None -> default
  | Some j -> finite_number name j

let string_list name = function
  | Json.Arr items ->
    List.map
      (function
        | Json.Str s -> s
        | _ -> invalid "%S must be an array of strings" name)
      items
  | _ -> invalid "%S must be an array of strings" name

let bool_param name ~default params =
  match Json.member name params with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> invalid "%S must be a boolean" name

(* [name] given as a single number is accepted as a one-element axis. *)
let num_axis name ~default params =
  match Json.member name params with
  | None -> default
  | Some (Json.Num _ as j) -> [ finite_number name j ]
  | Some (Json.Arr items) ->
    if items = [] then invalid "%S must not be empty" name;
    List.map (finite_number name) items
  | Some _ -> invalid "%S must be a number or an array of numbers" name

let int_axis name ~default ~min ~max params =
  List.map
    (fun v ->
      if Float.is_integer v && v >= float_of_int min && v <= float_of_int max
      then int_of_float v
      else invalid "%S entries must be integers in [%d, %d]" name min max)
    (num_axis name ~default:(List.map float_of_int default) params)

let parse_call meth params =
  match meth with
  | "optimum" ->
    Optimum
      {
        tech = tech_of_json (Json.member "tech" params);
        arch = arch_of_json (Json.member "arch" params);
      }
  | "sweep" ->
    let samples =
      int_param "samples" ~default:25 ~min:2 ~max:max_sweep_samples params
    in
    let vdd_lo = float_param "vdd_lo" ~default:0.25 params in
    let vdd_hi = float_param "vdd_hi" ~default:1.2 params in
    if not (vdd_lo > 0.0 && vdd_hi > vdd_lo && vdd_hi <= 20.0) then
      invalid "sweep range must satisfy 0 < vdd_lo < vdd_hi <= 20";
    Sweep
      {
        tech = tech_of_json (Json.member "tech" params);
        arch = arch_of_json (Json.member "arch" params);
        samples;
        vdd_lo;
        vdd_hi;
      }
  | "rank" ->
    let archs =
      match Json.member "archs" params with
      | None -> catalog_labels
      | Some j ->
        let archs = string_list "archs" j in
        if archs = [] then invalid "\"archs\" must not be empty";
        List.iter
          (fun a ->
            if not (List.mem a catalog_labels) then
              invalid "unknown architecture %S (see Table 1 labels)" a)
          archs;
        archs
    in
    Rank { tech = tech_of_json (Json.member "tech" params); archs }
  | "lint" ->
    let only =
      match Json.member "only" params with
      | None -> None
      | Some j ->
        let ids = string_list "only" j in
        List.iter
          (fun id ->
            match Analysis.Rule.find id with
            | _ -> ()
            | exception Not_found ->
              invalid "unknown rule id %S (see lint --list-rules)" id)
          ids;
        Some ids
    in
    Lint { only }
  | "certify" ->
    Certify { flavors = flavors_of_json (Json.member "tech" params) }
  | "explore" ->
    let d = Power_core.Explorer.default_axes in
    let bits = int_param "bits" ~default:d.bits ~min:4 ~max:16 params in
    if bits mod 2 <> 0 then invalid "\"bits\" must be even";
    let radices = int_axis "radices" ~default:d.radices ~min:2 ~max:8 params in
    List.iter
      (fun r ->
        if r <> 2 && r <> 4 && r <> 8 then
          invalid "\"radices\" entries must be 2, 4 or 8")
      radices;
    let stages = int_axis "stages" ~default:d.stages ~min:1 ~max:16 params in
    let copies = int_axis "copies" ~default:d.copies ~min:1 ~max:64 params in
    let signednesses =
      if bool_param "signed" ~default:false params then
        [ Multipliers.Booth.Signed ]
      else d.signednesses
    in
    let fmults = num_axis "fmults" ~default:d.fmults params in
    List.iter
      (fun m -> if not (m > 0.0) then invalid "\"fmults\" entries must be > 0")
      fmults;
    let techs = flavors_of_json (Json.member "tech" params) in
    let prune = bool_param "prune" ~default:true params in
    let family_of_name s =
      match Power_core.Explorer.family_of_string s with
      | Some f -> f
      | None ->
        invalid "unknown family %S (expected booth, dadda or wallace)" s
    in
    let families =
      match Json.member "families" params with
      | None -> d.families
      | Some (Json.Str s) -> [ family_of_name s ]
      | Some (Json.Arr _ as j) ->
        let names = string_list "families" j in
        if names = [] then invalid "\"families\" must not be empty";
        List.map family_of_name names
      | Some _ -> invalid "\"families\" must be a string or array of strings"
    in
    (* Constraint caps: absent = unconstrained; present must be a finite
       strictly positive number (NaN and negatives are invalid-params). *)
    let cap_param name =
      match Json.member name params with
      | None -> None
      | Some j ->
        let v = finite_number name j in
        if v > 0.0 then Some v else invalid "%S must be > 0" name
    in
    let max_latency = cap_param "max_latency" in
    let max_area = cap_param "max_area" in
    let axes =
      { Power_core.Explorer.bits; families; radices; signednesses; stages;
        copies; fmults; techs }
    in
    let size = Power_core.Explorer.space_size axes in
    if size = 0 then
      invalid "axes enumerate no candidates (no family/radix/stages combo validates)";
    if size > max_explore_candidates then
      invalid "axes enumerate %d candidates (cap %d); narrow an axis" size
        max_explore_candidates;
    Explore { axes; prune; max_latency; max_area }
  | "store_stats" -> Store_stats
  | m -> raise (Invalid (Unknown_method, Printf.sprintf "unknown method %S" m))

let call_of_params meth params =
  match params with
  | Json.Obj _ -> (
    match parse_call meth params with
    | call -> Ok call
    | exception Invalid (code, msg) -> Error (code, msg))
  | _ -> Error (Params, "\"params\" must be an object")

let parse_frame line =
  if String.length line > max_frame_bytes then
    Error
      ( Json.Null,
        Frame,
        Printf.sprintf "frame exceeds %d bytes" max_frame_bytes )
  else
    match Json.parse line with
    | Error msg -> Error (Json.Null, Parse, msg)
    | Ok json ->
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      (match json with
      | Json.Obj _ -> (
        match Json.member "method" json with
        | Some (Json.Str meth) ->
          let params =
            Option.value ~default:(Json.Obj []) (Json.member "params" json)
          in
          (match call_of_params meth params with
          | Ok call -> Ok { id; call }
          | Error (code, msg) -> Error (id, code, msg))
        | Some _ -> Error (id, Parse, "\"method\" must be a string")
        | None -> Error (id, Parse, "missing \"method\""))
      | _ -> Error (id, Parse, "request frame must be a JSON object"))

let ok_frame ~id payload =
  Json.to_string (Json.Obj [ ("id", id); ("ok", payload) ])

let error_frame ~id code message =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ( "error",
           Json.Obj
             [
               ("code", Json.Str (code_string code));
               ("message", Json.Str message);
             ] );
       ])
