(* Self-checks of the script generators. Run with
   `dune build @perfbench/runtest` (also part of `dune runtest`). *)

open Perfbench
module S = Script

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

(* The benchmark's run length (BENCHMARK.json run_seconds). *)
let seconds = 20.0

let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a

let determinism () =
  List.iter
    (fun workload ->
      let text seed = S.to_text ~workload ~seed ~seconds in
      check (workload ^ ": same seed, same script") (text 7 = text 7);
      check (workload ^ ": other seed, other script") (text 7 <> text 8))
    S.workloads

let yield_shares () =
  let ops = Array.of_list (S.yield_script ~seed:3 ~seconds) in
  let n = Array.length ops in
  let pairs = List.length S.labels * List.length S.flavors in
  check "yield-sobol: whole cycles" (n mod pairs = 0);
  List.iter
    (fun tech ->
      List.iter
        (fun label ->
          check
            (Printf.sprintf "yield-sobol: %s/%s share" label tech)
            (count
               (fun (o : S.yield_op) -> o.y_label = label && o.y_tech = tech)
               ops
            = n / pairs))
        S.labels)
    (List.map Device.Technology.name S.flavors);
  check "yield-sobol: >= 10 ops beyond the tail"
    (Common.beyond ~n S.yield_tail_pct >= 10)

let explore_shares () =
  let ops = Array.of_list (S.explore_script ~seed:3 ~seconds) in
  let n = Array.length ops in
  let blocks = n / S.explore_block in
  let repeats = count (fun (o : S.explore_op) -> o.repeat_of <> None) ops in
  let heavy =
    count (fun (o : S.explore_op) -> o.heavy && o.repeat_of = None) ops
  in
  check "explore-store: whole blocks" (n mod S.explore_block = 0);
  check "explore-store: repeat share"
    (repeats = S.explore_repeats_per_block * blocks);
  check "explore-store: heavy share" (heavy = S.explore_heavy_per_block * blocks);
  check "explore-store: op 0 is a regular cold op"
    (ops.(0).repeat_of = None && not ops.(0).heavy);
  Array.iteri
    (fun i (o : S.explore_op) ->
      match o.repeat_of with
      | Some j ->
        check "explore-store: repeats an earlier cold op"
          (j < i && ops.(j).repeat_of = None && ops.(j).axes = o.axes)
      | None ->
        check "explore-store: cold op size"
          (o.heavy || Power_core.Explorer.space_size o.axes = S.regular_candidates))
    ops;
  (* Classes on the cumulative share axis, cheapest first: warm repeats,
     regular cold ops, heavy cold ops. p50 must sit inside the regular
     class and the tail inside the heavy one, each with margin. *)
  let pct k = 100.0 *. float_of_int k /. float_of_int S.explore_block in
  let warm = pct S.explore_repeats_per_block in
  let heavy_from = 100.0 -. pct S.explore_heavy_per_block in
  check "explore-store: p50 inside the regular class, 10 points from its edges"
    (50.0 -. warm >= 10.0 && heavy_from -. 50.0 >= 10.0);
  check "explore-store: tail inside the heavy class, 1 point from its edges"
    (S.explore_tail_pct -. heavy_from >= 1.0 && 100.0 -. S.explore_tail_pct >= 1.0);
  check "explore-store: >= 10 ops beyond the tail"
    (Common.beyond ~n S.explore_tail_pct >= 10)

let serve_shares () =
  let conns = S.serve_script ~seed:3 ~seconds in
  check "serve-mix: one script per connection"
    (Array.length conns = S.serve_connections);
  Array.iteri
    (fun c (reqs : S.request array) ->
      let n = Array.length reqs in
      List.iter
        (fun (k, share) ->
          check
            (Printf.sprintf "serve-mix: conn %d %s share" c (S.kind_name k))
            (count (fun (r : S.request) -> r.kind = k) reqs * 100 = share * n))
        S.serve_shares;
      Array.iteri
        (fun i (r : S.request) ->
          match r.kind with
          | S.Repeat ->
            check "serve-mix: a repeat copies an earlier frame"
              (Array.exists
                 (fun (q : S.request) -> q.kind <> S.Repeat && q.frame = r.frame)
                 (Array.sub reqs 0 i))
          | S.Malformed -> check "serve-mix: malformed frames expect an error" (r.expect_error <> None)
          | _ -> check "serve-mix: regular frames expect ok" (r.expect_error = None))
        reqs)
    conns;
  (* Class boundaries on the cumulative share axis, cheapest first. *)
  let share cls =
    List.fold_left
      (fun a (k, s) -> if S.cls_of k = cls then a + s else a)
      0 S.serve_shares
  in
  let cheap = float_of_int (share S.Cheap) and mid = float_of_int (share S.Mid) in
  check "serve-mix: p50 inside the cheap class, 5 points from its edge"
    (cheap -. 50.0 >= 5.0);
  check "serve-mix: tail inside the heavy class, 1 point from its edge"
    (S.serve_tail_pct -. (cheap +. mid) >= 1.0);
  let n = Array.fold_left (fun a r -> a + Array.length r) 0 conns in
  check "serve-mix: >= 10 ops beyond the tail"
    (Common.beyond ~n S.serve_tail_pct >= 10)

let () =
  determinism ();
  yield_shares ();
  explore_shares ();
  serve_shares ();
  if !failures > 0 then begin
    Printf.printf "%d self-check(s) failed\n" !failures;
    exit 1
  end
