(* Fixed op scripts, generated from the workload seed alone.

   A run plays its whole script, never a fixed duration: the op count is
   a function of (seed, seconds) and every share below is realised as an
   exact count, so the mix is identical in every run and only the draws
   within each kind change with the seed. *)

module E = Power_core.Explorer
module T = Device.Technology
module J = Serve.Json

(* Planned op rates on a 2-vCPU host, counting every play of a script:
   they size the script so that a run's timed windows take about
   [--seconds] together; a slower host takes longer, never less work. *)
let yield_ops_per_s = 11.7
let explore_ops_per_s = 300.0
let serve_requests_per_s = 1300.0

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [k] distinct elements of [xs], kept in list order. *)
let choose st k xs =
  let a = Array.of_list xs in
  let idx = Array.init (Array.length a) Fun.id in
  shuffle st idx;
  let keep = Array.sub idx 0 k in
  Array.sort compare keep;
  Array.to_list (Array.map (fun i -> a.(i)) keep)

let labels =
  List.map (fun (r : Power_core.Paper_data.table1_row) -> r.label)
    Power_core.Paper_data.table1

let flavors = T.all

let round_to k x = float_of_string (Printf.sprintf "%.*g" k x)

(* Log-uniform frequency multiple in [0.25, 8]: fresh on every draw. *)
let fresh_fmult st =
  round_to 6 (0.25 *. Float.pow 32.0 (Random.State.float st 1.0))

(* {1 yield-sobol} *)

type yield_op = { y_label : string; y_tech : string; y_seed : int }

let yield_dies = 65_536

(* The tail percentile of each workload: the highest with at least ten
   ops beyond it at the planned op counts. *)
let yield_tail_pct = 95.0

let yield_script ~seed ~seconds =
  let st = rng ~seed "yield-sobol" in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun tech -> List.map (fun l -> (l, T.name tech)) labels)
         flavors)
  in
  let per_cycle = Array.length pairs in
  let cycles =
    Int.max 1
      (int_of_float
         (Float.round (seconds *. yield_ops_per_s /. float_of_int per_cycle)))
  in
  List.concat
    (List.init cycles (fun _ ->
         let order = Array.copy pairs in
         shuffle st order;
         Array.to_list
           (Array.map
              (fun (l, t) ->
                { y_label = l; y_tech = t; y_seed = Random.State.bits st })
              order)))

let yield_op_to_string o = Printf.sprintf "%s/%s/%d" o.y_label o.y_tech o.y_seed

(* {1 explore-store} *)

type explore_op = { axes : E.axes; repeat_of : int option; heavy : bool }

(* Per block of 40 ops: 10 exact repeats of an earlier cold op (the cheap
   class), 29 regular cold ops of 16 candidates each and one heavy cold
   op over the whole universe at three frequencies. p50 falls inside the
   regular class and p99 inside the heavy one (2.5 % of the ops), so
   neither rests on a class boundary nor on a few jittered regular ops.

   The script is played [explore_rounds] times per run, each time on a
   fresh store; an op's latency is the median of its plays, so a
   preemption that hits one play does not set a percentile. *)
let explore_rounds = 3
let explore_block = 40
let explore_repeats_per_block = 10
let explore_heavy_per_block = 1
let explore_tail_pct = 99.0

let all_families = [ E.Booth; E.Dadda; E.Wallace ]

(* The substrate universe every op draws from; the set-up characterises
   all of it, so no op pays a cold characterisation. *)
let explore_universe =
  {
    E.bits = 8;
    families = all_families;
    radices = [ 2; 4; 8 ];
    signednesses = [ Multipliers.Booth.Unsigned ];
    stages = [ 1; 2; 3 ];
    copies = [ 1 ];
    fmults = [ 1.0 ];
    techs = [ T.ll ];
  }

(* [k] distinct fresh frequency multiples, so no cold op replays an
   earlier op's solves. *)
let rec fresh_fmults st k =
  let l = List.sort_uniq Float.compare (List.init k (fun _ -> fresh_fmult st)) in
  if List.length l = k then l else fresh_fmults st k

let regular_candidates = 16

(* Booth at one radix and Wallace over two stage counts: four substrates
   x two copy counts x two flavors at one fresh frequency. *)
let rec regular_axes st =
  let axes =
    {
      explore_universe with
      families = [ E.Booth; E.Wallace ];
      radices = choose st 1 [ 2; 4; 8 ];
      stages = choose st 2 [ 1; 2; 3 ];
      copies = choose st 2 [ 1; 2; 4; 8 ];
      fmults = [ fresh_fmult st ];
      techs = choose st 2 flavors;
    }
  in
  if E.space_size axes = regular_candidates then axes else regular_axes st

let heavy_axes st =
  {
    explore_universe with
    copies = choose st 2 [ 1; 2; 4; 8 ];
    fmults = fresh_fmults st 3;
    techs = flavors;
  }

type explore_kind = Cold | Heavy_cold | Repeat_cold

let explore_script ~seed ~seconds =
  let st = rng ~seed "explore-store" in
  let blocks =
    Int.max 1
      (int_of_float
         (Float.round
            (seconds *. explore_ops_per_s
            /. float_of_int (explore_block * explore_rounds))))
  in
  let n = explore_block * blocks in
  let kinds =
    Array.init n (fun i ->
        match i mod explore_block with
        | k when k < explore_repeats_per_block -> Repeat_cold
        | k when k < explore_repeats_per_block + explore_heavy_per_block ->
          Heavy_cold
        | _ -> Cold)
  in
  shuffle st kinds;
  (* Op 0 is a regular cold op, so every repeat has a source. *)
  (match kinds.(0) with
  | Cold -> ()
  | k ->
    let j = ref 0 in
    while kinds.(!j) <> Cold do incr j done;
    kinds.(0) <- Cold;
    kinds.(!j) <- k);
  let ops =
    Array.make n { axes = explore_universe; repeat_of = None; heavy = false }
  in
  let cold = ref [] in
  Array.iteri
    (fun i kind ->
      match kind with
      | Repeat_cold ->
        let pool = Array.of_list !cold in
        let j = pool.(Random.State.int st (Array.length pool)) in
        ops.(i) <- { ops.(j) with repeat_of = Some j }
      | Cold | Heavy_cold ->
        let heavy = kind = Heavy_cold in
        let axes = if heavy then heavy_axes st else regular_axes st in
        ops.(i) <- { axes; repeat_of = None; heavy };
        cold := i :: !cold)
    kinds;
  Array.to_list ops

let axes_to_string (a : E.axes) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "bits=%d fam=%s radix=%s stages=%s copies=%s f=%s tech=%s"
    a.bits
    (String.concat "," (List.map E.family_name a.families))
    (ints a.radices) (ints a.stages) (ints a.copies)
    (String.concat "," (List.map (Printf.sprintf "%h") a.fmults))
    (String.concat "," (List.map T.name a.techs))

let explore_op_to_string o =
  match o.repeat_of with
  | Some j -> Printf.sprintf "repeat %d" j
  | None -> (if o.heavy then "heavy " else "") ^ axes_to_string o.axes

(* {1 serve-mix} *)

type kind =
  | Optimum
  | Sweep
  | Rank
  | Certify
  | Explore
  | Repeat
  | Malformed

let kind_name = function
  | Optimum -> "optimum"
  | Sweep -> "sweep"
  | Rank -> "rank"
  | Certify -> "certify"
  | Explore -> "explore"
  | Repeat -> "repeat"
  | Malformed -> "malformed"

(* Per hundred requests of each connection. *)
let serve_shares =
  [
    (Optimum, 45); (Sweep, 25); (Rank, 15); (Certify, 6); (Explore, 3);
    (Repeat, 5); (Malformed, 1);
  ]

let serve_connections = 2
let serve_explore_candidates = 48

(* The script is played [serve_rounds] times per run, each time against
   a fresh server; a request's latency is the median of its plays. *)
let serve_rounds = 3
let serve_tail_pct = 99.0

type request = {
  kind : kind;
  base : kind;  (** The kind of the original frame for a repeat. *)
  frame : string;
  expect_error : string option;  (** Error code a malformed frame gets. *)
}

(* Latency classes: cheap replies (cache hits, single cold solves,
   errors), mid-weight sweeps and ranks, heavy explores. *)
type cls = Cheap | Mid | Heavy

let cls_of = function
  | Optimum | Certify | Repeat | Malformed -> Cheap
  | Sweep | Rank -> Mid
  | Explore -> Heavy

let cls_name = function Cheap -> "cheap" | Mid -> "mid" | Heavy -> "heavy"

let frame ~id meth params =
  J.to_string
    (J.Obj
       [ ("id", J.Str id); ("method", J.Str meth); ("params", J.Obj params) ])

let num x = J.Num x
let str s = J.Str s
let pick st l = List.nth l (Random.State.int st (List.length l))

let serve_connection ~seed ~seconds c =
  let st = rng ~seed (Printf.sprintf "serve-mix/%d" c) in
  let hundreds =
    Int.max 1
      (int_of_float
         (Float.round
            (seconds *. serve_requests_per_s
            /. float_of_int (serve_connections * serve_rounds)
            /. 100.0)))
  in
  let kinds =
    Array.of_list
      (List.concat_map
         (fun (k, share) -> List.init (share * hundreds) (fun _ -> k))
         serve_shares)
  in
  shuffle st kinds;
  (* The first request must be a regular one so repeats have a source. *)
  (match kinds.(0) with
  | Repeat | Malformed ->
    let j = ref 0 in
    while (match kinds.(!j) with Repeat | Malformed -> true | _ -> false) do
      incr j
    done;
    let t = kinds.(0) in
    kinds.(0) <- kinds.(!j);
    kinds.(!j) <- t
  | _ -> ());
  let n = Array.length kinds in
  (* Stratified sweep sizes: the same multiset of sample counts in every
     run, 16 to 256. *)
  let n_sweeps = Array.fold_left (fun a k -> if k = Sweep then a + 1 else a) 0 kinds in
  let sizes =
    Array.init n_sweeps (fun i ->
        16 + int_of_float (240.0 *. (float_of_int i +. 0.5) /. float_of_int n_sweeps))
  in
  shuffle st sizes;
  let next_size = ref 0 in
  (* Stratified rank sizes likewise: 2 to all 13 architectures, each
     equally often. *)
  let n_ranks = Array.fold_left (fun a k -> if k = Rank then a + 1 else a) 0 kinds in
  let rank_sizes =
    Array.init n_ranks (fun i -> 2 + (i mod (List.length labels - 1)))
  in
  shuffle st rank_sizes;
  let next_rank = ref 0 in
  let tech () = T.name (pick st flavors) in
  let regular = ref [] in
  let out = Array.make n { kind = Optimum; base = Optimum; frame = ""; expect_error = None } in
  for i = 0 to n - 1 do
    let id = Printf.sprintf "c%d-%d" c i in
    let mk kind frame = { kind; base = kind; frame; expect_error = None } in
    let r =
      match kinds.(i) with
      | Optimum ->
        mk Optimum
          (frame ~id "optimum" [ ("arch", str (pick st labels)); ("tech", str (tech ())) ])
      | Sweep ->
        let samples = sizes.(!next_size) in
        incr next_size;
        let lo = round_to 4 (0.25 +. Random.State.float st 0.35) in
        let hi = round_to 4 (Float.min 1.2 (lo +. 0.3 +. Random.State.float st 0.3)) in
        mk Sweep
          (frame ~id "sweep"
             [
               ("arch", str (pick st labels)); ("tech", str (tech ()));
               ("samples", num (float_of_int samples)); ("vdd_lo", num lo);
               ("vdd_hi", num hi);
             ])
      | Rank ->
        let k = rank_sizes.(!next_rank) in
        incr next_rank;
        mk Rank
          (frame ~id "rank"
             [
               ("tech", str (tech ()));
               ("archs", J.Arr (List.map str (choose st k labels)));
             ])
      | Certify -> mk Certify (frame ~id "certify" [ ("tech", str (tech ())) ])
      | Explore ->
        (* Booth at one radix and Wallace over two stage counts, two copy
           counts, two fresh frequencies and all three flavors: 48
           candidates, always cold solves. *)
        let rec axes () =
          let radices = choose st 1 [ 2; 4; 8 ] in
          let stages = choose st 2 [ 1; 2; 3 ] in
          let copies = choose st 2 [ 1; 2; 4 ] in
          let fmults = fresh_fmults st 2 in
          let a =
            {
              explore_universe with
              families = [ E.Booth; E.Wallace ]; radices; stages; copies;
              fmults; techs = flavors;
            }
          in
          if E.space_size a <> serve_explore_candidates then axes ()
          else
            [
              ( "families",
                J.Arr (List.map (fun f -> str (E.family_name f)) a.families) );
              ("radices", J.Arr (List.map (fun r -> num (float_of_int r)) radices));
              ("stages", J.Arr (List.map (fun r -> num (float_of_int r)) stages));
              ("copies", J.Arr (List.map (fun r -> num (float_of_int r)) copies));
              ("fmults", J.Arr (List.map num fmults));
              ("tech", str "all");
            ]
        in
        mk Explore (frame ~id "explore" (axes ()))
      | Repeat ->
        let src = pick st !regular in
        { src with kind = Repeat }
      | Malformed ->
        let frame, code =
          match Random.State.int st 3 with
          | 0 ->
            ( Printf.sprintf "{\"id\":%S,\"method\":\"optimum\",\"params\":{\"arch\":" id,
              "parse-error" )
          | 1 -> (frame ~id "optimise" [ ("arch", str "RCA") ], "unknown-method")
          | _ ->
            ( frame ~id "optimum" [ ("arch", str "RCA"); ("tech", str "XL") ],
              "invalid-params" )
        in
        { kind = Malformed; base = Malformed; frame; expect_error = Some code }
    in
    (match r.kind with
    | Repeat | Malformed -> ()
    | _ -> regular := r :: !regular);
    out.(i) <- r
  done;
  out

let serve_script ~seed ~seconds =
  Array.init serve_connections (serve_connection ~seed ~seconds)

let request_to_string r = kind_name r.kind ^ " " ^ r.frame

(* {1 The whole script as text — the determinism self-check compares it
   byte for byte.} *)

let to_text ~workload ~seed ~seconds =
  let lines =
    match workload with
    | "yield-sobol" -> List.map yield_op_to_string (yield_script ~seed ~seconds)
    | "explore-store" ->
      List.map explore_op_to_string (explore_script ~seed ~seconds)
    | "serve-mix" ->
      List.concat_map
        (fun conn -> Array.to_list (Array.map request_to_string conn))
        (Array.to_list (serve_script ~seed ~seconds))
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  String.concat "\n" lines ^ "\n"

let workloads = [ "yield-sobol"; "explore-store"; "serve-mix" ]
