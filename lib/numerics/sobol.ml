(* Sobol low-discrepancy sequence, Gray-code construction (Antonov-Saleev)
   over 32-bit direction numbers, with an optional per-dimension digital
   shift scramble.

   The point with index [n] is computed by random access — XOR of the
   direction numbers selected by the set bits of gray(n) — rather than by
   iterating a generator state. Random access is what makes deterministic
   chunked parallel generation trivial: die [i] always receives point [i],
   whatever pool chunk evaluates it. The per-point cost is O(popcount),
   about 16 XORs on average; a cursor started at any index then steps
   through the following points at one XOR per dimension. *)

let bits = 32

(* Primitive polynomials and initial direction values for the first eight
   dimensions, from the Joe-Kuo "new-joe-kuo-6" table (dimension 1 is the
   van der Corput sequence in base 2 and needs no table entry). Each row is
   (s, a, m) with s the polynomial degree, a its encoded inner
   coefficients, and m the s initial odd direction values. *)
let joe_kuo =
  [|
    (1, 0, [| 1 |]);
    (2, 1, [| 1; 3 |]);
    (3, 1, [| 1; 3; 1 |]);
    (3, 2, [| 1; 1; 1 |]);
    (4, 1, [| 1; 1; 3; 3 |]);
    (4, 4, [| 1; 3; 5; 13 |]);
    (5, 2, [| 1; 1; 5; 5; 17 |]);
  |]

let max_dims = Array.length joe_kuo + 1

(* v.(d).(k) = direction number k of dimension d, as a 32-bit integer
   scaled so bit (bits - 1 - k) is the leading bit. *)
let direction_numbers dims =
  let v = Array.make_matrix dims bits 0 in
  (* Dimension 0: van der Corput, v_k = 2^(bits-1-k). *)
  for k = 0 to bits - 1 do
    v.(0).(k) <- 1 lsl (bits - 1 - k)
  done;
  for d = 1 to dims - 1 do
    let s, a, m = joe_kuo.(d - 1) in
    for k = 0 to s - 1 do
      v.(d).(k) <- m.(k) lsl (bits - 1 - k)
    done;
    for k = s to bits - 1 do
      (* Recurrence: v_k = v_{k-s} xor (v_{k-s} >> s) xor sum of tap terms. *)
      let value = ref (v.(d).(k - s) lxor (v.(d).(k - s) lsr s)) in
      for j = 1 to s - 1 do
        if (a lsr (s - 1 - j)) land 1 = 1 then
          value := !value lxor v.(d).(k - j)
      done;
      v.(d).(k) <- !value
    done
  done;
  v

type t = {
  dims : int;
  v : int array array;
  shift : int array;  (* digital-shift scramble word per dimension *)
}

let create ?scramble ~dims () =
  if dims < 1 || dims > max_dims then
    invalid_arg
      (Printf.sprintf "Sobol.create: dims must be in [1, %d]" max_dims);
  let shift =
    match scramble with
    | None -> Array.make dims 0
    | Some rng ->
      (* One 32-bit digital-shift word per dimension, drawn in dimension
         order so the scramble is a pure function of the stream state. *)
      Array.init dims (fun _ ->
          Int64.to_int
            (Int64.logand (Rng.next_int64 rng) 0xFFFFFFFFL))
  in
  { dims; v = direction_numbers dims; shift }

let dims t = t.dims

(* Point [n]'s word in dimension [d]: the scramble XOR the direction
   numbers selected by the set bits of [gray = gray(n)]. *)
let word t d gray =
  let vd = t.v.(d) in
  let x = ref t.shift.(d) in
  let g = ref gray in
  let k = ref 0 in
  while !g <> 0 do
    if !g land 1 = 1 then x := !x lxor vd.(!k);
    g := !g lsr 1;
    incr k
  done;
  !x

(* Midpoint convention (x + 1/2) / 2^32 keeps the value strictly inside
   (0, 1), so it survives an inverse-CDF transform. *)
let unit_of_word x = float_of_int ((x lsl 1) lor 1) *. 0x1p-33

let check_out t out what =
  if Array.length out < t.dims then
    invalid_arg ("Sobol." ^ what ^ ": output array too short")

let point_into t n out =
  if n < 0 then invalid_arg "Sobol.point_into: negative index";
  check_out t out "point_into";
  let gray = n lxor (n lsr 1) in
  for d = 0 to t.dims - 1 do
    out.(d) <- unit_of_word (word t d gray)
  done

let point t n =
  let out = Array.make t.dims 0.0 in
  point_into t n out;
  out

(* A cursor holds the words of the point it last wrote (of [first] before
   its first write). gray(n) and gray(n - 1) differ in bit ctz(n) only,
   so each step is one XOR per dimension: the words equal the random
   access ones at every index. *)
type cursor = { seq : t; first : int; mutable next : int; words : int array }

let cursor t n =
  if n < 0 then invalid_arg "Sobol.cursor: negative index";
  let gray = n lxor (n lsr 1) in
  { seq = t; first = n; next = n; words = Array.init t.dims (fun d -> word t d gray) }

let ctz n =
  let k = ref 0 and n = ref n in
  while !n land 1 = 0 do
    incr k;
    n := !n lsr 1
  done;
  !k

let next_into c out =
  let t = c.seq in
  check_out t out "next_into";
  let n = c.next in
  if n > c.first then begin
    let k = ctz n in
    for d = 0 to t.dims - 1 do
      c.words.(d) <- c.words.(d) lxor t.v.(d).(k)
    done
  end;
  for d = 0 to t.dims - 1 do
    out.(d) <- unit_of_word c.words.(d)
  done;
  c.next <- n + 1
