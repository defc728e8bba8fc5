(* Pruned Pareto design-space exploration (ROADMAP item 1): the 13-row
   table blown open into an enumerable (generator × transform × flavor)
   space, evaluated exactly only where a candidate could still matter.

   Soundness of the pruning ledger. The per-design ledger stores only
   certified lower bounds on min-over-vdd Ptot: the .lo of an
   Absint.certify enclosure from an exact evaluation, or a threshold an
   Absint.excludes proof showed the design to be strictly above. Achieved
   solver totals are never entered — an achieved value bounds the minimum
   from above, not below. Slices run in ascending frequency and
   min-over-vdd Ptot on the constraint locus is nondecreasing in f (pdyn
   grows ∝ f; χ′ ∝ f lowers the implied vth, raising pstat pointwise), so
   a ledger bound certified at a lower f keeps bounding the design at
   every later slice.

   Front identity. A candidate is discarded only when its certified lower
   bound strictly exceeds the achieved power of a front member no worse in
   latency and area — that member then dominates the candidate outright,
   and dominance is transitive through any later front culling. Hence the
   pruned and exhaustive paths finish every slice with the same front set;
   both arms run the identical exact-evaluation task (certification, then
   the seeded solve inside the certified bracket), so the retained floats
   agree bit for bit. Planning and folding happen sequentially on the
   caller against round-start state (Pool.map_rounds), which extends the
   bit-identity to any pool size.

   Warm store. With [?store], three record families persist across runs:
   substrate characterizations (keyed by generator parameters, so a hit
   skips the build entirely), exact solve outcomes (keyed by the full
   hex-float problem serialization — a hit replays the very bits a cold
   solve would produce, the solver being deterministic), and the certified
   ledger (keyed by design serialization + slice frequency). All store
   reads and writes happen on the calling domain (plan/fold and the
   substrate pre/post passes), so warm runs stay bitwise-identical to
   cold runs at any pool size; only the prune/hit counters move. *)

module Iv = Numerics.Interval

type family = Booth | Dadda | Wallace

let family_name = function
  | Booth -> "booth"
  | Dadda -> "dadda"
  | Wallace -> "wallace"

let family_of_string = function
  | "booth" -> Some Booth
  | "dadda" -> Some Dadda
  | "wallace" -> Some Wallace
  | _ -> None

type axes = {
  bits : int;
  families : family list;
  radices : int list;
  signednesses : Multipliers.Booth.signedness list;
  stages : int list;
  copies : int list;
  fmults : float list;  (** Multiples of {!Paper_data.frequency}. *)
  techs : Device.Technology.t list;
}

let default_axes =
  {
    bits = 8;
    families = [ Booth; Dadda; Wallace ];
    radices = [ 2; 4; 8 ];
    signednesses = [ Multipliers.Booth.Unsigned ];
    stages = [ 1; 2; 3 ];
    copies = [ 1; 2; 4 ];
    fmults = [ 0.5; 1.0; 2.0; 4.0 ];
    techs = Device.Technology.all;
  }

type substrate = {
  family : family;
  radix : int;  (** Booth recoding radix; 0 for Dadda/Wallace. *)
  signedness : Multipliers.Booth.signedness;
  stages : int;
}

(* Substrates: one generator build per (family, radix, signedness, stages)
   at the axes' width. Booth combos go through Booth.validate; the Dadda
   reducer is combinational-only (pipeline depth 1); Wallace pipelines any
   depth >= 2 via Pipeliner.by_depth. The parallelism axis is the analytic
   Transform.parallelize scaling — matching how Section 4 reasons about
   replication — so copies never trigger a rebuild. *)
let substrate_combos axes =
  List.concat_map
    (fun family ->
      match family with
      | Booth ->
        List.concat_map
          (fun radix ->
            List.concat_map
              (fun signedness ->
                List.filter_map
                  (fun stages ->
                    match
                      Multipliers.Booth.validate ~radix ~signedness ~stages
                        ~copies:1 ~bits:axes.bits
                    with
                    | Ok () ->
                      Some { family = Booth; radix; signedness; stages }
                    | Error _ -> None)
                  axes.stages)
              axes.signednesses)
          axes.radices
      | Dadda ->
        if List.mem 1 axes.stages && axes.bits >= 2 then
          [ { family = Dadda; radix = 0;
              signedness = Multipliers.Booth.Unsigned; stages = 1 } ]
        else []
      | Wallace ->
        if axes.bits < 2 then []
        else
          List.filter_map
            (fun stages ->
              if stages >= 1 then
                Some
                  { family = Wallace; radix = 0;
                    signedness = Multipliers.Booth.Unsigned; stages }
              else None)
            axes.stages)
    axes.families

let space_size axes =
  List.length (substrate_combos axes)
  * List.length axes.copies * List.length axes.techs
  * List.length axes.fmults

(* Tech-free netlist characterization, shared across every candidate that
   reuses a substrate. *)
type chars = {
  n_cells : float;
  activity : float;
  avg_cap : float;
  avg_leak_factor : float;
  ld_eff : float;
  area : float;
}

let build_memo =
  Parallel.Memo.create ~name:"dse.build"
    (fun (family, radix, signedness, stages, bits) ->
      match family with
      | Booth -> Multipliers.Booth.generate ~signedness ~stages ~radix ~bits ()
      | Dadda -> Multipliers.Spec_optimize.run (Multipliers.Dadda.basic ~bits)
      | Wallace ->
        Multipliers.Spec_optimize.run
          (if stages <= 1 then Multipliers.Wallace.basic ~bits
           else Multipliers.Wallace.pipelined ~bits ~stages))

(* Keyed by the circuit's structural hash (plus the stimulus parameters),
   not the generator tuple: distinct parameter points that elaborate to the
   same structure share one STA/placement/activity run. Hand-rolled rather
   than Parallel.Memo because the compute needs the spec, which is not part
   of the key. *)
let chars_mutex = Mutex.create ()

let chars_table : (int * int * int, chars) Hashtbl.t = Hashtbl.create 64

let c_chars_hit = Obs.Counter.make ~cat:"cache" "memo.dse.chars.hit"
let c_chars_miss = Obs.Counter.make ~cat:"cache" "memo.dse.chars.miss"

let characterize ~seed ~cycles (spec : Multipliers.Spec.t) =
  let key = (Netlist.Circuit.structural_hash spec.circuit, seed, cycles) in
  Mutex.lock chars_mutex;
  let cached = Hashtbl.find_opt chars_table key in
  Mutex.unlock chars_mutex;
  match cached with
  | Some c ->
    Obs.Counter.incr c_chars_hit;
    c
  | None ->
    Obs.Counter.incr c_chars_miss;
    let stats = Multipliers.Spec.stats spec in
    let placement = Netlist.Placement.place spec.circuit in
    let avg_cap =
      (Netlist.Placement.refine_stats spec.circuit placement)
        .avg_cap_with_wires
    in
    let measured = Multipliers.Harness.measure_activity ~seed ~cycles spec in
    let c =
      {
        n_cells = float_of_int stats.cell_total;
        activity = measured.activity;
        avg_cap;
        avg_leak_factor = stats.avg_leak_factor;
        ld_eff = Multipliers.Spec.logical_depth_effective spec;
        area = stats.area;
      }
    in
    Mutex.lock chars_mutex;
    Hashtbl.replace chars_table key c;
    Mutex.unlock chars_mutex;
    c

(* Store codec for a characterization: six exact hex floats, keyed by the
   generator parameters (never the structural hash — the whole point is to
   answer before building the netlist). *)
let sign_tag = function
  | Multipliers.Booth.Unsigned -> "u"
  | Multipliers.Booth.Signed -> "s"

let chars_store_key ~bits ~seed ~cycles sub =
  Printf.sprintf "%s r%d%s p%d w%d|seed:%d cyc:%d" (family_name sub.family)
    sub.radix (sign_tag sub.signedness) sub.stages bits seed cycles

let encode_chars c =
  Warm.encode_floats
    [ c.n_cells; c.activity; c.avg_cap; c.avg_leak_factor; c.ld_eff; c.area ]

let decode_chars s =
  match Warm.decode_floats s with
  | Some [ n_cells; activity; avg_cap; avg_leak_factor; ld_eff; area ] ->
    Some { n_cells; activity; avg_cap; avg_leak_factor; ld_eff; area }
  | _ -> None

let params_of_chars ~label ~reference (c : chars) =
  {
    Arch_params.label;
    n_cells = c.n_cells;
    activity = c.activity;
    avg_cap = c.avg_cap;
    io_cell = c.avg_leak_factor *. reference.Device.Technology.io;
    ld_eff = c.ld_eff;
    area = c.area;
  }

type entry = {
  label : string;
  design : string;  (** Tech-qualified design identity — the ledger key. *)
  family : family;
  radix : int;
  signedness : Multipliers.Booth.signedness;
  stages : int;
  copies : int;
  tech : string;
  f : float;
  power : float;  (** Achieved optimal Ptot, W. *)
  vdd : float;  (** Supply at the optimum, V. *)
  cert_lo : float;  (** Certified lower bound on min Ptot, W. *)
  latency : float;  (** Effective logical depth after transforms. *)
  area : float;  (** Cell count after transforms (area proxy). *)
}

type slice = { f : float; front : entry list }

type totals = {
  enumerated : int;
  filtered : int;  (** Dropped by the latency/area constraint caps. *)
  bound_pruned : int;  (** Discarded by the O(1) ledger lookup. *)
  cert_pruned : int;  (** Discarded by an {!Absint.excludes} proof. *)
  store_hits : int;  (** Exact outcomes replayed from the warm store. *)
  exact_solves : int;
  front_size : int;  (** Summed over slices. *)
}

type result = { pruned : bool; slices : slice list; totals : totals }

let c_enumerated = Obs.Counter.make "dse.enumerated"
let c_filtered = Obs.Counter.make "dse.constraint_filtered"
let c_bound_pruned = Obs.Counter.make "dse.bound_pruned"
let c_cert_pruned = Obs.Counter.make "dse.cert_pruned"
let c_store_hits = Obs.Counter.make "dse.store_hits"
let c_exact_solves = Obs.Counter.make "dse.exact_solves"
let c_front_size = Obs.Counter.make "pareto.front_size"

(* [a] dominates [b]: no worse on every axis, strictly better somewhere. *)
let dominates a b =
  a.power <= b.power && a.latency <= b.latency && a.area <= b.area
  && (a.power < b.power || a.latency < b.latency || a.area < b.area)

(* In-place dominance culling: drop the newcomer if any incumbent covers
   it, else evict everything it covers. *)
let front_insert front e =
  if List.exists (fun s -> dominates s e) front then front
  else e :: List.filter (fun s -> not (dominates e s)) front

(* Least achieved power among front members no worse than the candidate on
   the other two axes; pruning against the front alone loses nothing — a
   front member dominating a culled solution also dominates anything that
   solution dominated. *)
let threshold_against front ~latency ~area =
  List.fold_left
    (fun acc s ->
      if s.latency <= latency && s.area <= area then Float.min acc s.power
      else acc)
    infinity front

type cand = {
  idx : int;
  design : string;
  label : string;
  cfamily : family;
  radix : int;
  signedness : Multipliers.Booth.signedness;
  stages : int;
  copies : int;
  tech_name : string;
  problem : Power_law.problem;
  dkey : string;  (** {!Warm.design_key} — the persisted-ledger identity. *)
  rank : float;  (** Eq. 13 closed-form Ptot; [infinity] when infeasible. *)
  latency : float;
  carea : float;
}

let design_label ~family ~radix ~signedness ~stages ~copies ~bits ~tech =
  match family with
  | Booth ->
    Printf.sprintf "r%d%s w%d p%d x%d @%s" radix (sign_tag signedness) bits
      stages copies tech
  | Dadda -> Printf.sprintf "dadda w%d x%d @%s" bits copies tech
  | Wallace ->
    Printf.sprintf "wallace w%d p%d x%d @%s" bits stages copies tech

let substrate_label ~bits (sub : substrate) =
  match sub.family with
  | Booth ->
    Printf.sprintf "booth r%d%s w%d p%d" sub.radix (sign_tag sub.signedness)
      bits sub.stages
  | Dadda -> Printf.sprintf "dadda w%d" bits
  | Wallace -> Printf.sprintf "wallace w%d p%d" bits sub.stages

(* Rank-gate heuristic for the certified prune: attempt the interval proof
   only when the closed form puts the candidate well above the threshold
   (or could not place it at all). Affects which proofs are attempted —
   never the front, since a skipped proof just means an exact solve. *)
let excludes_gate ~rank ~threshold =
  (not (Float.is_finite rank)) || rank > 1.02 *. threshold

type acc = {
  front : entry list;
  a_bound_pruned : int;
  a_cert_pruned : int;
  a_store : int;
  a_exact : int;
}

(* The store key of an exact per-slice solve outcome: {!Warm.problem_key}
   of the candidate, from the design key it already carries. *)
let opt_key c = Warm.problem_key_of_design ~design_key:c.dkey c.problem

let ledger_key ~dkey ~f = Printf.sprintf "%s|f:%h" dkey f

(* The axes checks [explore] documents; the valid substrate combos. *)
let validate ?max_latency ?max_area axes =
  if axes.fmults = [] then invalid_arg "Explorer.explore: empty fmults";
  if axes.techs = [] then invalid_arg "Explorer.explore: empty techs";
  if axes.copies = [] then invalid_arg "Explorer.explore: empty copies";
  if axes.families = [] then invalid_arg "Explorer.explore: empty families";
  List.iter
    (fun c ->
      if c < 1 then invalid_arg "Explorer.explore: copies must be >= 1")
    axes.copies;
  let check_cap name = function
    | None -> ()
    | Some x ->
      if not (Float.is_finite x) || x <= 0.0 then
        invalid_arg (Printf.sprintf "Explorer.explore: %s must be finite > 0" name)
  in
  check_cap "max_latency" max_latency;
  check_cap "max_area" max_area;
  let combos = substrate_combos axes in
  if combos = [] then
    invalid_arg
      "Explorer.explore: no valid (family, radix, signedness, stages) combo";
  combos

(* The design axes (everything except f) in a fixed order, each as
   (substrate, copies, tech, tech name, label, design key, params). Build +
   characterize each substrate once, in parallel; the memo pair makes
   repeat explorations (and the exhaustive arm of an A/B run) skip straight
   to cached characterizations. Warm-store lookups and writes both run on
   the caller — a hit skips the build entirely. *)
let designs ?pool ?store ~seed ~cycles ~reference axes combos =
  let lookups =
    List.map
      (fun sub ->
        let skey = chars_store_key ~bits:axes.bits ~seed ~cycles sub in
        let stored =
          match store with
          | None -> None
          | Some st ->
            Option.bind (Store.find st ~ns:Warm.ns_chars skey) decode_chars
        in
        (sub, skey, stored))
      combos
  in
  let substrates =
    Parallel.Pool.map ?pool
      (fun ((sub : substrate), skey, stored) ->
        match stored with
        | Some c -> (sub, skey, c, false)
        | None ->
          let spec =
            Parallel.Memo.find build_memo
              (sub.family, sub.radix, sub.signedness, sub.stages, axes.bits)
          in
          (sub, skey, characterize ~seed ~cycles spec, true))
      lookups
  in
  (match store with
  | None -> ()
  | Some st ->
    List.iter
      (fun (_, skey, c, fresh) ->
        if fresh then Store.put st ~ns:Warm.ns_chars skey (encode_chars c))
      substrates);
  List.concat_map
    (fun (sub, _, chars, _) ->
      List.concat_map
        (fun copies ->
          let base =
            params_of_chars
              ~label:(substrate_label ~bits:axes.bits sub)
              ~reference chars
          in
          let transformed =
            if copies = 1 then base
            else (Transform.parallelize ~copies ()).Transform.apply base
          in
          List.map
            (fun tech ->
              let tech_name = Device.Technology.name tech in
              let params =
                Tech_compare.adapt_params ~reference tech transformed
              in
              let design =
                design_label ~family:sub.family ~radix:sub.radix
                  ~signedness:sub.signedness ~stages:sub.stages ~copies
                  ~bits:axes.bits ~tech:tech_name
              in
              let dkey =
                Warm.design_key
                  { Power_law.tech; params; f = 1.0; chi_prime = 0.0 }
              in
              (sub, copies, tech, tech_name, design, dkey, params))
            axes.techs)
        axes.copies)
    substrates

(* The slice frequencies, ascending and deduplicated. *)
let slice_frequencies axes =
  let fs =
    List.sort_uniq compare
      (List.map (fun m -> m *. Paper_data.frequency) axes.fmults)
  in
  List.iter
    (fun f -> if f <= 0.0 then invalid_arg "Explorer.explore: fmult <= 0")
    fs;
  fs

let problems ?(seed = 7) ?(cycles = 160) ?(reference = Device.Technology.ll)
    axes =
  let designs = designs ~seed ~cycles ~reference axes (validate axes) in
  List.concat_map
    (fun f ->
      List.map
        (fun (_, _, tech, _, _, _, params) -> Power_law.make tech params ~f)
        designs)
    (slice_frequencies axes)

let explore ?pool ?(round = 16) ?(prune = true) ?(seed = 7) ?(cycles = 160)
    ?(reference = Device.Technology.ll) ?store ?max_latency ?max_area axes =
  let combos = validate ?max_latency ?max_area axes in
  let designs = designs ?pool ?store ~seed ~cycles ~reference axes combos in
  let fs = slice_frequencies axes in
  (* Certified lower bounds per design, carried across ascending-f slices
     (see the header comment for why that is sound). *)
  let ledger : (string, float) Hashtbl.t = Hashtbl.create 256 in
  let ledger_raise design lo =
    if Float.is_finite lo then
      match Hashtbl.find_opt ledger design with
      | Some prev when prev >= lo -> ()
      | _ -> Hashtbl.replace ledger design lo
  in
  let totals =
    ref
      { enumerated = 0; filtered = 0; bound_pruned = 0; cert_pruned = 0;
        store_hits = 0; exact_solves = 0; front_size = 0 }
  in
  let slices =
    List.map
      (fun f ->
        (* Seed the in-run ledger with bounds a previous run certified for
           this exact (design, f): they were carried to f by the same
           ascending-slice monotonicity argument before being persisted.
           The slice's ledger keys, by design index, serve the final
           persist pass too. *)
        let ledger_keys =
          match store with
          | None -> [||]
          | Some st ->
            Array.of_list
              (List.map
                 (fun (_, _, _, _, design, dkey, _) ->
                   let key = ledger_key ~dkey ~f in
                   (match Store.find st ~ns:Warm.ns_ledger key with
                   | None -> ()
                   | Some v -> (
                     match Warm.decode_floats v with
                     | Some [ lo ] -> ledger_raise design lo
                     | _ -> ()));
                   key)
                 designs)
        in
        let cands =
          List.mapi
            (fun idx
                 ((sub : substrate), copies, tech, tech_name, design, dkey,
                  params) ->
              let problem = Power_law.make tech params ~f in
              let rank =
                match Closed_form.evaluate problem with
                | r -> r.Closed_form.ptot
                | exception Closed_form.Infeasible _ -> infinity
              in
              {
                idx;
                design;
                label = design;
                cfamily = sub.family;
                radix = sub.radix;
                signedness = sub.signedness;
                stages = sub.stages;
                copies;
                tech_name;
                problem;
                dkey;
                rank;
                latency = params.Arch_params.ld_eff;
                carea = params.Arch_params.n_cells;
              })
            designs
        in
        Obs.Counter.add c_enumerated (List.length cands);
        (* Constraint caps apply identically in both arms — a pure
           candidate predicate, so fronts stay bitwise-comparable. *)
        let cands, n_filtered =
          match (max_latency, max_area) with
          | None, None -> (cands, 0)
          | _ ->
            let keep c =
              (match max_latency with
               | Some cap -> c.latency <= cap
               | None -> true)
              && match max_area with
                 | Some cap -> c.carea <= cap
                 | None -> true
            in
            let kept, dropped = List.partition keep cands in
            (kept, List.length dropped)
        in
        Obs.Counter.add c_filtered n_filtered;
        (* Incumbent-first order: cheap closed-form rank ascending, so the
           strongest thresholds form before the bulk of the space plans. *)
        let sorted =
          List.sort
            (fun a b ->
              match Float.compare a.rank b.rank with
              | 0 -> Int.compare a.idx b.idx
              | c -> c)
            cands
        in
        (* Plan and fold both run sequentially on the caller over the same
           items in the same order, so a queue of prune reasons pushed by
           plan is popped by fold in lockstep. Store replay rides the task
           payload: a hit carries the stored outcome through the pool
           untouched, so fold sees solve and replay results uniformly. *)
        let reasons : [ `Bound | `Cert ] Queue.t = Queue.create () in
        (* A candidate's opt key is formatted at most once, and only with a
           store: a miss carries it through the task to [fold]'s put. *)
        let replay c =
          match store with
          | None -> `Miss None
          | Some st -> (
            let key = opt_key c in
            match
              Option.bind (Store.find st ~ns:Warm.ns_opt key) Warm.decode_opt
            with
            | Some outcome -> `Hit outcome
            | None -> `Miss (Some key))
        in
        let plan acc c =
          if not prune then
            match replay c with
            | `Hit _ as hit -> Some hit
            | `Miss key -> Some (`Solve (c.problem, key))
          else begin
            let threshold =
              threshold_against acc.front ~latency:c.latency ~area:c.carea
            in
            let ledger_lo =
              Option.value ~default:neg_infinity
                (Hashtbl.find_opt ledger c.design)
            in
            if ledger_lo > threshold then begin
              Obs.Counter.incr c_bound_pruned;
              Queue.add `Bound reasons;
              None
            end
            else
              match replay c with
              | `Hit _ as hit -> Some hit
              | `Miss key ->
                if
                  Float.is_finite threshold
                  && excludes_gate ~rank:c.rank ~threshold
                  && Absint.excludes (Absint.box c.problem) ~threshold
                then begin
                  Obs.Counter.incr c_cert_pruned;
                  (* The proof is strict (min Ptot > threshold), so the
                     next float up is still a sound lower bound — and it
                     makes the persisted ledger able to re-prune this
                     candidate without re-running the proof. *)
                  ledger_raise c.design (Iv.up threshold);
                  Queue.add `Cert reasons;
                  None
                end
                else Some (`Solve (c.problem, key))
          end
        in
        let task = function
          | `Hit outcome -> `Hit outcome
          | `Solve (problem, key) ->
            let point, cert = Numerical_opt.certified_optimum problem in
            if Float.is_finite point.Power_law.total then
              `Solved (key, Some (point, cert.Absint.ptot.Iv.lo))
            else `Solved (key, None)
        in
        let consume_outcome acc c outcome =
          match outcome with
          | None ->
            (* No finite working point: infeasible at this throughput. *)
            acc
          | Some (point, cert_lo) ->
            ledger_raise c.design cert_lo;
            let e =
              {
                label = c.label;
                design = c.design;
                family = c.cfamily;
                radix = c.radix;
                signedness = c.signedness;
                stages = c.stages;
                copies = c.copies;
                tech = c.tech_name;
                f;
                power = point.Power_law.total;
                vdd = point.Power_law.vdd;
                cert_lo;
                latency = c.latency;
                area = c.carea;
              }
            in
            { acc with front = front_insert acc.front e }
        in
        let fold acc c result =
          match result with
          | None -> (
            match Queue.pop reasons with
            | `Bound -> { acc with a_bound_pruned = acc.a_bound_pruned + 1 }
            | `Cert -> { acc with a_cert_pruned = acc.a_cert_pruned + 1 })
          | Some (`Hit outcome) ->
            Obs.Counter.incr c_store_hits;
            let acc = consume_outcome acc c outcome in
            { acc with a_store = acc.a_store + 1 }
          | Some (`Solved (key, outcome)) ->
            Obs.Counter.incr c_exact_solves;
            (match (store, key) with
            | Some st, Some key ->
              Store.put st ~ns:Warm.ns_opt key (Warm.encode_opt outcome)
            | _ -> ());
            let acc = consume_outcome acc c outcome in
            { acc with a_exact = acc.a_exact + 1 }
        in
        let final =
          Parallel.Pool.map_rounds ?pool ~round ~plan ~task ~fold
            ~init:
              { front = []; a_bound_pruned = 0; a_cert_pruned = 0;
                a_store = 0; a_exact = 0 }
            sorted
        in
        (* Persist this slice's certified bounds for the designs it
           actually walked — the next run's slice preload. *)
        (match store with
        | None -> ()
        | Some st ->
          List.iter
            (fun c ->
              match Hashtbl.find_opt ledger c.design with
              | Some lo when Float.is_finite lo ->
                Store.put st ~ns:Warm.ns_ledger ledger_keys.(c.idx)
                  (Warm.encode_floats [ lo ])
              | _ -> ())
            sorted);
        let front =
          List.sort
            (fun a b ->
              match Float.compare a.power b.power with
              | 0 -> String.compare a.design b.design
              | c -> c)
            final.front
        in
        Obs.Counter.add c_front_size (List.length front);
        let t = !totals in
        totals :=
          {
            enumerated = t.enumerated + List.length cands + n_filtered;
            filtered = t.filtered + n_filtered;
            bound_pruned = t.bound_pruned + final.a_bound_pruned;
            cert_pruned = t.cert_pruned + final.a_cert_pruned;
            store_hits = t.store_hits + final.a_store;
            exact_solves = t.exact_solves + final.a_exact;
            front_size = t.front_size + List.length front;
          };
        { f; front })
      fs
  in
  { pruned = prune; slices; totals = !totals }
