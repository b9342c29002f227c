let prime = 0x100000001B3L
let offset = 0xCBF29CE484222325L

let[@inline] step h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) prime

let finish h =
  (* Mask to 62 bits so the result is a non-negative OCaml int. *)
  Int64.to_int (Int64.logand (Int64.shift_right_logical h 1) 0x3FFFFFFFFFFFFFFFL)

(* Both loops keep the state in a local [Int64] ref, which the native
   compiler unboxes: no allocation per byte. *)
let hash_int64 k =
  let h = ref offset in
  for i = 0 to 7 do
    h := step !h (Int64.to_int (Int64.shift_right_logical k (8 * i)) land 0xFF)
  done;
  finish !h

let hash_int k = hash_int64 (Int64.of_int k)

let hash_string s =
  let h = ref offset in
  for i = 0 to String.length s - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  finish !h

let combine a b =
  (finish (step (step offset (a land 0xFF)) (b land 0xFF)) lxor (a * 31) lxor b)
  land 0x3FFFFFFFFFFFFFFF
