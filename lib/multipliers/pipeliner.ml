module C = Netlist.Circuit

let insert circuit ~stage_of_cell ~max_stage ~outputs =
  let stage_of_net net =
    match C.driver circuit net with
    | None -> 0
    | Some (id, _) -> Option.value ~default:0 (stage_of_cell id)
  in
  (* delayed (net, k): net delayed by k flip-flops; chains are shared. *)
  let cache : (C.net * int, C.net) Hashtbl.t = Hashtbl.create 64 in
  let rec delayed net k =
    if k = 0 then net
    else begin
      match Hashtbl.find_opt cache (net, k) with
      | Some d -> d
      | None ->
        let d = C.add_dff circuit (delayed net (k - 1)) in
        Hashtbl.add cache (net, k) d;
        d
    end
  in
  let snapshot = C.cells circuit in
  List.iter
    (fun (cell : C.cell) ->
      match stage_of_cell cell.id with
      | None -> ()
      | Some sv ->
        if sv < 0 || sv > max_stage then
          invalid_arg "Pipeliner.insert: cell stage out of range";
        Array.iteri
          (fun slot net ->
            let su = stage_of_net net in
            if su > sv then
              invalid_arg
                (Printf.sprintf
                   "Pipeliner.insert: stage decreases along %s -> %s"
                   (C.net_name circuit net)
                   (Netlist.Cell.name cell.kind));
            if sv > su then
              C.rewire_input circuit cell.id slot (delayed net (sv - su)))
          cell.inputs)
    snapshot;
  Array.map (fun net -> delayed net (max_stage - stage_of_net net)) outputs

let by_depth circuit ~stages ~outputs =
  if stages < 2 then invalid_arg "Pipeliner.by_depth: stages < 2";
  let report = Netlist.Timing.analyze circuit in
  (* The region may not be hooked to endpoints yet (outputs still
     unregistered), so take the depth over every net rather than the
     endpoint-based logical_depth. *)
  let depth = Array.fold_left Float.max 0.0 report.arrivals in
  if depth <= 0.0 then outputs
  else begin
    let bucket = depth /. float_of_int stages in
    (* A cell's stage comes from its slowest output's arrival. Sources
       (flip-flops, ties) stay outside the assignment. *)
    let stage_of_cell id =
      let cell = C.get_cell circuit id in
      if Netlist.Topo.is_source cell then None
      else begin
        let arrival =
          Array.fold_left
            (fun acc n -> Float.max acc report.arrivals.(n))
            0.0 cell.outputs
        in
        Some (min (stages - 1) (int_of_float (arrival /. bucket)))
      end
    in
    insert circuit ~stage_of_cell ~max_stage:(stages - 1) ~outputs
  end
