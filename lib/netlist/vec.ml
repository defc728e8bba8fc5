(* [hint] is the caller's size estimate. An ['a array] cannot be
   allocated without a value, so the hint is held until the first [push]
   supplies one; from then on it floors the growth doublings. *)
type 'a t = { mutable data : 'a array; mutable len : int; hint : int }

let create ?(capacity = 0) () = { data = [||]; len = 0; hint = capacity }
let length t = t.len

let push t x =
  let capacity = Array.length t.data in
  if t.len = capacity then begin
    let data = Array.make (max t.hint (max 8 (2 * capacity))) x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))
