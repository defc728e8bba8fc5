(* Streaming statistics with O(1) memory per statistic and deterministic
   merges — the aggregation layer of the million-die Monte Carlo engine.

   Three mergeable accumulators (Moments, Quantile, Yield) plus the classic
   non-mergeable P-squared estimator. Quantile and Yield hold integer
   counts, so their merge is exactly associative and commutative; Moments
   merges compensated float sums, associative to rounding (the engine
   always merges in fixed chunk order, so its results are bitwise
   deterministic regardless). *)

module Moments = struct
  type t = {
    mutable count : int;
    sum : Kahan.t;
    sum_sq : Kahan.t;
    mutable min_value : float;
    mutable max_value : float;
  }

  let create () =
    {
      count = 0;
      sum = Kahan.create ();
      sum_sq = Kahan.create ();
      min_value = infinity;
      max_value = neg_infinity;
    }

  let add t x =
    t.count <- t.count + 1;
    Kahan.add t.sum x;
    Kahan.add t.sum_sq (x *. x);
    if x < t.min_value then t.min_value <- x;
    if x > t.max_value then t.max_value <- x

  let merge_into t other =
    t.count <- t.count + other.count;
    Kahan.add t.sum (Kahan.sum other.sum);
    Kahan.add t.sum_sq (Kahan.sum other.sum_sq);
    if other.min_value < t.min_value then t.min_value <- other.min_value;
    if other.max_value > t.max_value then t.max_value <- other.max_value

  let count t = t.count

  let mean t =
    if t.count = 0 then invalid_arg "Sketch.Moments.mean: empty";
    Kahan.sum t.sum /. float_of_int t.count

  let stddev t =
    if t.count < 2 then 0.0
    else begin
      let n = float_of_int t.count in
      let m = Kahan.sum t.sum /. n in
      (* One-pass variance: E[x^2] - mean^2, compensated sums. Clamped at
         zero against cancellation on near-constant streams. *)
      let var = (Kahan.sum t.sum_sq -. (n *. m *. m)) /. (n -. 1.0) in
      sqrt (Float.max 0.0 var)
    end

  let summary t : Stats.summary =
    if t.count = 0 then invalid_arg "Sketch.Moments.summary: empty";
    {
      count = t.count;
      mean = mean t;
      stddev = stddev t;
      min_value = t.min_value;
      max_value = t.max_value;
    }
end

module Quantile = struct
  (* Relative-error quantile sketch over logarithmic buckets (the DDSketch
     scheme): value x > 0 lands in bucket ceil(log_gamma x) with
     gamma = (1 + alpha) / (1 - alpha), and the bucket midpoint
     2 gamma^i / (gamma + 1) is within relative error alpha of every value
     the bucket covers. Negative values use a mirrored bucket table,
     magnitudes below [tiny] a dedicated zero bucket. Bucket counts are
     integers, so merging is exactly associative and commutative, and the
     number of buckets is bounded by the dynamic range of the data (about
     2900 per decade-spanning sign at alpha = 1%), never by the stream
     length — O(1) memory in the number of observations. *)
  type t = {
    alpha : float;
    gamma_log : float; (* log gamma *)
    gamma : float;
    tiny : float;
    pos : (int, int) Hashtbl.t;
    neg : (int, int) Hashtbl.t;
    mutable zero : int;
    mutable count : int;
  }

  let create ?(alpha = 0.01) () =
    if not (alpha > 0.0 && alpha < 1.0) then
      invalid_arg "Sketch.Quantile.create: alpha must be in (0, 1)";
    let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
    {
      alpha;
      gamma;
      gamma_log = log gamma;
      tiny = 1e-300;
      pos = Hashtbl.create 64;
      neg = Hashtbl.create 8;
      zero = 0;
      count = 0;
    }

  let alpha t = t.alpha

  let bump table key =
    match Hashtbl.find_opt table key with
    | Some n -> Hashtbl.replace table key (n + 1)
    | None -> Hashtbl.add table key 1

  let add t x =
    if not (Float.is_finite x) then
      invalid_arg "Sketch.Quantile.add: non-finite value";
    t.count <- t.count + 1;
    if x > t.tiny then bump t.pos (int_of_float (Float.ceil (log x /. t.gamma_log)))
    else if x < -.t.tiny then
      bump t.neg (int_of_float (Float.ceil (log (-.x) /. t.gamma_log)))
    else t.zero <- t.zero + 1

  let merge_into t other =
    if other.alpha <> t.alpha then
      invalid_arg "Sketch.Quantile.merge_into: alpha mismatch";
    let fold src dst =
      Hashtbl.iter
        (fun key n ->
          match Hashtbl.find_opt dst key with
          | Some m -> Hashtbl.replace dst key (m + n)
          | None -> Hashtbl.add dst key n)
        src
    in
    fold other.pos t.pos;
    fold other.neg t.neg;
    t.zero <- t.zero + other.zero;
    t.count <- t.count + other.count

  let count t = t.count

  (* Bucket midpoint: within relative error alpha of any covered value. *)
  let value_of t key = 2.0 *. (t.gamma ** float_of_int key) /. (t.gamma +. 1.0)

  let sorted_keys table =
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) table [] in
    List.sort compare keys

  let quantile t p =
    if t.count = 0 then invalid_arg "Sketch.Quantile.quantile: empty";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Sketch.Quantile.quantile: p out of range";
    (* Same rank convention as Stats.percentile, rounded to the nearest
       order statistic: the result is within alpha of x_(round(rank)). *)
    let rank =
      int_of_float
        (Float.round (p /. 100.0 *. float_of_int (t.count - 1)))
    in
    let remaining = ref (rank + 1) in
    let result = ref nan in
    (* Ascending value order: negatives from large to small magnitude,
       then zero, then positives from small to large magnitude. *)
    List.iter
      (fun key ->
        if Float.is_nan !result then begin
          let n = Hashtbl.find t.neg key in
          if !remaining <= n then result := -.value_of t key
          else remaining := !remaining - n
        end)
      (List.rev (sorted_keys t.neg));
    if Float.is_nan !result && t.zero > 0 then begin
      if !remaining <= t.zero then result := 0.0
      else remaining := !remaining - t.zero
    end;
    if Float.is_nan !result then
      List.iter
        (fun key ->
          if Float.is_nan !result then begin
            let n = Hashtbl.find t.pos key in
            if !remaining <= n then result := value_of t key
            else remaining := !remaining - n
          end)
        (sorted_keys t.pos);
    if Float.is_nan !result then
      (* Rounding put the rank one past the last bucket; clamp to max. *)
      (match List.rev (sorted_keys t.pos) with
      | key :: _ -> result := value_of t key
      | [] -> (
        if t.zero > 0 then result := 0.0
        else
          match sorted_keys t.neg with
          | key :: _ -> result := -.value_of t key
          | [] -> assert false));
    !result
end

module Yield = struct
  (* Parametric-yield curve: for a fixed grid of power specs, the fraction
     of dies whose (re-optimised) total power meets each spec. One integer
     bin per grid interval — binary-search insert, cumulative sum on read —
     so merging is exact integer addition. *)
  type t = {
    specs : float array; (* strictly increasing *)
    bins : int array;    (* bins.(i): count with specs.(i-1) < x <= specs.(i);
                            bins.(len): count above the last spec *)
    mutable count : int;
  }

  let create ~specs =
    let n = Array.length specs in
    if n = 0 then invalid_arg "Sketch.Yield.create: no specs";
    for i = 1 to n - 1 do
      if specs.(i) <= specs.(i - 1) then
        invalid_arg "Sketch.Yield.create: specs must be strictly increasing"
    done;
    { specs = Array.copy specs; bins = Array.make (n + 1) 0; count = 0 }

  let add t x =
    (* First spec index with specs.(i) >= x, or len when x exceeds all. *)
    let lo = ref 0 and hi = ref (Array.length t.specs) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.specs.(mid) >= x then hi := mid else lo := mid + 1
    done;
    t.bins.(!lo) <- t.bins.(!lo) + 1;
    t.count <- t.count + 1

  let merge_into t other =
    if t.specs <> other.specs then
      invalid_arg "Sketch.Yield.merge_into: spec grids differ";
    Array.iteri (fun i n -> t.bins.(i) <- t.bins.(i) + n) other.bins;
    t.count <- t.count + other.count

  let count t = t.count

  let curve t =
    if t.count = 0 then invalid_arg "Sketch.Yield.curve: empty";
    let n = float_of_int t.count in
    let cumulative = ref 0 in
    Array.mapi
      (fun i spec ->
        cumulative := !cumulative + t.bins.(i);
        (spec, float_of_int !cumulative /. n))
      t.specs
end
