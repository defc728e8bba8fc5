(* 3: explorer outcomes are solved inside the certificate (2 stored the
   Eq. 13-seeded and grid solves' bits; 1 Brent's). *)
let codec_version = "optpower-warm/3"

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let tech_fields (t : Device.Technology.t) =
  [
    t.vdd_nom;
    t.vth0_nom;
    t.io;
    t.zeta_ro;
    t.ring_divisor;
    t.alpha;
    t.n;
    t.eta;
    t.temperature;
    t.cell_cap;
  ]

let fingerprint () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf codec_version;
  List.iter
    (fun t ->
      Buffer.add_string buf (Device.Technology.name t);
      List.iter
        (fun x -> Buffer.add_string buf (Printf.sprintf " %h" x))
        (tech_fields t))
    Device.Technology.all;
  Buffer.add_string buf (Printf.sprintf " f=%h" Paper_data.frequency);
  Printf.sprintf "%016Lx" (fnv_string fnv_basis (Buffer.contents buf))

let default_path () =
  match Sys.getenv_opt "OPTPOWER_STORE" with
  | Some p when p <> "" -> p
  | _ -> ".optpower-store"

let open_store ?readonly ?path () =
  let path = match path with Some p -> p | None -> default_path () in
  match Store.open_ ?readonly ~path ~fingerprint:(fingerprint ()) () with
  | Ok t -> Some t
  | Error _ -> None

let ns_chars = "chars"
let ns_opt = "opt"
let ns_ledger = "ledger"
let ns_solve = "solve"

let encode_floats xs =
  String.concat " " (List.map (fun x -> Printf.sprintf "%h" x) xs)

let decode_floats s =
  let parts = String.split_on_char ' ' s in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | "" :: rest -> go acc rest
    | x :: rest -> (
        match float_of_string_opt x with
        | Some v -> go (v :: acc) rest
        | None -> None)
  in
  go [] parts

let design_key (p : Power_law.problem) =
  let t = p.tech and a = p.params in
  Printf.sprintf "t:%s %s|a:%h %h %h %h %h %h"
    (Device.Technology.name t)
    (encode_floats (tech_fields t))
    a.n_cells a.activity a.avg_cap a.io_cell a.ld_eff a.area

let problem_key_of_design ~design_key (p : Power_law.problem) =
  Printf.sprintf "%s|f:%h|x:%h" design_key p.f p.chi_prime

let problem_key p = problem_key_of_design ~design_key:(design_key p) p

let encode_point (b : Power_law.breakdown) =
  encode_floats [ b.vdd; b.vth; b.dynamic; b.static; b.total ]

let encode_opt = function
  | None -> "I"
  | Some (point, cert_lo) ->
      Printf.sprintf "F %s %h" (encode_point point) cert_lo

let decode_opt s =
  if String.equal s "I" then Some None
  else if String.length s > 2 && s.[0] = 'F' && s.[1] = ' ' then
    match decode_floats (String.sub s 2 (String.length s - 2)) with
    | Some [ vdd; vth; dynamic; static; total; cert_lo ] ->
        Some (Some ({ Power_law.vdd; vth; dynamic; static; total }, cert_lo))
    | _ -> None
  else None
