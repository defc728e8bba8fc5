type entry = { label : string; build : unit -> Spec.t }

let default_bits = 16

(* Catalog entries go through the clean-up pass — what a synthesis flow
   would hand to the power analysis. *)
let rename label (spec : Spec.t) =
  Spec_optimize.run { spec with Spec.name = label }

let parallel_of ~label ~copies core =
  {
    label;
    build =
      (fun () ->
        rename label
          (Parallelize.wrap ~name:label ~bits:default_bits ~copies ~core ()));
  }

let raw_entries =
  [
    { label = "RCA"; build = (fun () -> rename "RCA" (Rca.basic ~bits:default_bits)) };
    parallel_of ~label:"RCA parallel" ~copies:2 Rca.core;
    parallel_of ~label:"RCA parallel 4" ~copies:4 Rca.core;
    {
      label = "RCA hor.pipe2";
      build =
        (fun () ->
          rename "RCA hor.pipe2"
            (Rca.pipelined ~bits:default_bits ~stages:2 ~cut:Rca.Horizontal));
    };
    {
      label = "RCA hor.pipe4";
      build =
        (fun () ->
          rename "RCA hor.pipe4"
            (Rca.pipelined ~bits:default_bits ~stages:4 ~cut:Rca.Horizontal));
    };
    {
      label = "RCA diagpipe2";
      build =
        (fun () ->
          rename "RCA diagpipe2"
            (Rca.pipelined ~bits:default_bits ~stages:2 ~cut:Rca.Diagonal));
    };
    {
      label = "RCA diagpipe4";
      build =
        (fun () ->
          rename "RCA diagpipe4"
            (Rca.pipelined ~bits:default_bits ~stages:4 ~cut:Rca.Diagonal));
    };
    {
      label = "Wallace";
      build = (fun () -> rename "Wallace" (Wallace.basic ~bits:default_bits));
    };
    parallel_of ~label:"Wallace parallel" ~copies:2 Wallace.core;
    parallel_of ~label:"Wallace par4" ~copies:4 Wallace.core;
    {
      label = "Sequential";
      build =
        (fun () -> rename "Sequential" (Sequential.basic ~bits:default_bits));
    };
    {
      label = "Seq4_16";
      build =
        (fun () ->
          rename "Seq4_16" (Sequential.wallace_4_16 ~bits:default_bits));
    };
    {
      label = "Seq parallel";
      build =
        (fun () ->
          rename "Seq parallel" (Sequential.parallel ~bits:default_bits));
    };
  ]

let raw_extensions =
  [
    {
      label = "Booth r4";
      build = (fun () -> rename "Booth r4" (Booth.basic ~bits:default_bits));
    };
    parallel_of ~label:"Booth r4 parallel" ~copies:2 Booth.core;
    {
      label = "Dadda";
      build = (fun () -> rename "Dadda" (Dadda.basic ~bits:default_bits));
    };
    parallel_of ~label:"Dadda parallel" ~copies:2 Dadda.core;
  ]

(* A built netlist is a pure function of (family label, operand width) and
   is read-only after the clean-up pass — simulation state lives in the
   simulator instance, never in the circuit — so every consumer shares one
   cached build. Keyed on (label, bits) even though the catalog currently
   only builds at [default_bits], so width-parametric entries can join
   later without a key change. *)
let build_cache : (string * int, Spec.t) Parallel.Memo.t =
  Parallel.Memo.create ~name:"catalog" (fun (label, _bits) ->
      match
        List.find_opt
          (fun (e : entry) -> e.label = label)
          (raw_entries @ raw_extensions)
      with
      | Some e -> e.build ()
      | None -> raise Not_found)

let build ?(bits = default_bits) label =
  if bits <> default_bits then
    invalid_arg "Catalog.build: only default_bits generators are catalogued";
  Parallel.Memo.find build_cache (label, bits)

let cached (entry : entry) =
  { entry with build = (fun () -> build entry.label) }

let entries = List.map cached raw_entries
let extensions = List.map cached raw_extensions

let find label =
  match List.find_opt (fun e -> e.label = label) (entries @ extensions) with
  | Some e -> e
  | None -> raise Not_found

