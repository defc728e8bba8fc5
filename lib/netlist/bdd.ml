type node = int
(* 0 = false, 1 = true, >= 2 internal. *)

exception Node_limit_exceeded

type manager = {
  mutable vars : int array;  (* per node *)
  mutable lows : int array;
  mutable highs : int array;
  mutable len : int;
  max_nodes : int;
  unique : (int * int * int, int) Hashtbl.t;  (* (var, low, high) -> id *)
  cache : (int * int * int, int) Hashtbl.t;  (* (op, a, b) -> id *)
}

let terminal_var = max_int

let create ?(max_nodes = 4_000_000) () =
  let m =
    {
      vars = Array.make 1024 terminal_var;
      lows = Array.make 1024 0;
      highs = Array.make 1024 0;
      len = 2;
      max_nodes;
      unique = Hashtbl.create 4096;
      cache = Hashtbl.create 4096;
    }
  in
  (* Node 0 = false, node 1 = true (terminals). *)
  m.lows.(0) <- 0;
  m.highs.(0) <- 0;
  m.lows.(1) <- 1;
  m.highs.(1) <- 1;
  m

let bdd_false _ = 0

let grow m =
  let capacity = Array.length m.vars in
  if m.len = capacity then begin
    let extend a fill =
      let b = Array.make (2 * capacity) fill in
      Array.blit a 0 b 0 m.len;
      b
    in
    m.vars <- extend m.vars terminal_var;
    m.lows <- extend m.lows 0;
    m.highs <- extend m.highs 0
  end

(* Hash-consed node creation with the two ROBDD reductions. *)
let mk m v low high =
  if low = high then low
  else begin
    match Hashtbl.find_opt m.unique (v, low, high) with
    | Some id -> id
    | None ->
      if m.len >= m.max_nodes then raise Node_limit_exceeded;
      grow m;
      let id = m.len in
      m.len <- m.len + 1;
      m.vars.(id) <- v;
      m.lows.(id) <- low;
      m.highs.(id) <- high;
      Hashtbl.add m.unique (v, low, high) id;
      id
  end

let var m i =
  if i < 0 || i >= terminal_var then invalid_arg "Bdd.var: bad index";
  mk m i 0 1

(* Binary apply with memoisation; op codes 0 = and, 1 = or, 2 = xor. *)
let rec apply m op a b =
  let terminal =
    match op with
    | 0 ->
      if a = 0 || b = 0 then Some 0
      else if a = 1 then Some b
      else if b = 1 then Some a
      else if a = b then Some a
      else None
    | 1 ->
      if a = 1 || b = 1 then Some 1
      else if a = 0 then Some b
      else if b = 0 then Some a
      else if a = b then Some a
      else None
    | _ ->
      if a = b then Some 0
      else if a = 0 then Some b
      else if b = 0 then Some a
      else None
  in
  match terminal with
  | Some r -> r
  | None ->
    let a, b = if a <= b then (a, b) else (b, a) in
    let key = (op, a, b) in
    (match Hashtbl.find_opt m.cache key with
    | Some r -> r
    | None ->
      let va = m.vars.(a) and vb = m.vars.(b) in
      let v = min va vb in
      let a_low = if va = v then m.lows.(a) else a in
      let a_high = if va = v then m.highs.(a) else a in
      let b_low = if vb = v then m.lows.(b) else b in
      let b_high = if vb = v then m.highs.(b) else b in
      let low = apply m op a_low b_low in
      let high = apply m op a_high b_high in
      let r = mk m v low high in
      Hashtbl.add m.cache key r;
      r)

let bdd_and m a b = apply m 0 a b
let bdd_or m a b = apply m 1 a b
let bdd_xor m a b = apply m 2 a b
let bdd_not m a = bdd_xor m a 1

let ite m sel then_ else_ =
  bdd_or m (bdd_and m sel then_) (bdd_and m (bdd_not m sel) else_)

let equal (a : node) (b : node) = a = b

let size m root =
  let seen = Hashtbl.create 64 in
  let rec walk id =
    if id > 1 && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      walk m.lows.(id);
      walk m.highs.(id)
    end
  in
  walk root;
  Hashtbl.length seen + if root <= 1 then 1 else 2

let eval m root assignment =
  let rec go id =
    if id = 0 then false
    else if id = 1 then true
    else if assignment m.vars.(id) then go m.highs.(id)
    else go m.lows.(id)
  in
  go root

let outputs_of_circuit m ~var_of_input circuit =
  let nets = Array.make (Circuit.net_count circuit) 0 in
  List.iter
    (fun n -> nets.(n) <- var m (var_of_input n))
    (Circuit.primary_inputs circuit);
  Circuit.iter_cells
    (fun cell ->
      match cell.kind with
      | Cell.Tie0 -> nets.(cell.outputs.(0)) <- 0
      | Cell.Tie1 -> nets.(cell.outputs.(0)) <- 1
      | Cell.Dff -> failwith "Bdd.outputs_of_circuit: sequential circuit"
      | Cell.Inv | Cell.Buf | Cell.Nand2 | Cell.Nor2 | Cell.And2 | Cell.Or2
      | Cell.Xor2 | Cell.Xnor2 | Cell.Mux2 | Cell.Half_adder
      | Cell.Full_adder ->
        ())
    circuit;
  List.iter
    (fun id ->
      let cell = Circuit.get_cell circuit id in
      let input i = nets.(cell.inputs.(i)) in
      let set o v = nets.(cell.outputs.(o)) <- v in
      match cell.kind with
      | Cell.Tie0 | Cell.Tie1 | Cell.Dff -> ()
      | Cell.Inv -> set 0 (bdd_not m (input 0))
      | Cell.Buf -> set 0 (input 0)
      | Cell.And2 -> set 0 (bdd_and m (input 0) (input 1))
      | Cell.Nand2 -> set 0 (bdd_not m (bdd_and m (input 0) (input 1)))
      | Cell.Or2 -> set 0 (bdd_or m (input 0) (input 1))
      | Cell.Nor2 -> set 0 (bdd_not m (bdd_or m (input 0) (input 1)))
      | Cell.Xor2 -> set 0 (bdd_xor m (input 0) (input 1))
      | Cell.Xnor2 -> set 0 (bdd_not m (bdd_xor m (input 0) (input 1)))
      | Cell.Mux2 -> set 0 (ite m (input 2) (input 1) (input 0))
      | Cell.Half_adder ->
        set 0 (bdd_xor m (input 0) (input 1));
        set 1 (bdd_and m (input 0) (input 1))
      | Cell.Full_adder ->
        let x = bdd_xor m (input 0) (input 1) in
        set 0 (bdd_xor m x (input 2));
        set 1
          (bdd_or m
             (bdd_and m (input 0) (input 1))
             (bdd_and m x (input 2))))
    (Topo.combinational circuit);
  List.map
    (fun (n, name) -> (name, nets.(n)))
    (Circuit.primary_outputs circuit)

type verdict =
  | Equivalent
  | Inequivalent of string
  | Aborted

(* Interleaved variable order: inputs sorted by (bit index, bus name), so
   a[0], b[0], a[1], b[1], ... — the effective order for datapaths. *)
let interleaved_order circuit =
  let parse name =
    match String.index_opt name '[' with
    | Some i when String.length name > i + 1 && name.[String.length name - 1] = ']'
      ->
      let bus = String.sub name 0 i in
      let index =
        int_of_string_opt
          (String.sub name (i + 1) (String.length name - i - 2))
      in
      (bus, Option.value ~default:0 index)
    | Some _ | None -> (name, 0)
  in
  let named =
    List.map
      (fun n ->
        let bus, index = parse (Circuit.net_name circuit n) in
        (index, bus, n))
      (Circuit.primary_inputs circuit)
  in
  List.sort compare named |> List.map (fun (_, _, n) -> n)

let check_equivalence ?(max_nodes = 4_000_000) left right =
  let names circuit =
    List.sort compare
      (List.map (fun n -> Circuit.net_name circuit n)
         (Circuit.primary_inputs circuit))
  in
  if names left <> names right then
    invalid_arg "Bdd.check_equivalence: input interfaces differ";
  let out_names circuit =
    List.sort compare (List.map snd (Circuit.primary_outputs circuit))
  in
  if out_names left <> out_names right then
    invalid_arg "Bdd.check_equivalence: output interfaces differ";
  (* One shared variable index per input NAME. *)
  let order = interleaved_order left in
  let index_of_name = Hashtbl.create 64 in
  List.iteri
    (fun i n -> Hashtbl.add index_of_name (Circuit.net_name left n) i)
    order;
  let var_of circuit n =
    match Hashtbl.find_opt index_of_name (Circuit.net_name circuit n) with
    | Some i -> i
    | None -> invalid_arg "Bdd.check_equivalence: unmatched input"
  in
  let m = create ~max_nodes () in
  match
    ( outputs_of_circuit m ~var_of_input:(var_of left) left,
      outputs_of_circuit m ~var_of_input:(var_of right) right )
  with
  | exception Node_limit_exceeded -> Aborted
  | left_outputs, right_outputs ->
    let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
    let rec compare_all l r =
      match (l, r) with
      | [], [] -> Equivalent
      | (name, a) :: l_rest, (_, b) :: r_rest ->
        if equal a b then compare_all l_rest r_rest else Inequivalent name
      | _, _ -> assert false
    in
    compare_all (sorted left_outputs) (sorted right_outputs)
