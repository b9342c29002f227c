(* CRC-32C (Castagnoli), the polynomial used by SSE4.2 [crc32] and by
   most storage formats (iSCSI, ext4, Btrfs). Software slicing-by-8
   implementation; on real hardware this is one instruction per word,
   which is why checksum computation is never charged to the simulated
   clock (see docs/FAULTS.md).

   The checksum state is kept pre- and post-inverted as usual, so
   [finish (update (init ()) b 0 (Bytes.length b))] matches the
   standard test vectors (crc32c "123456789" = 0xE3069283).

   Internally the state is a native [int] holding 32 significant bits,
   so the loops allocate nothing; an [int32] is boxed only when a value
   crosses the API. *)

let poly = 0x82F63B78 (* reflected 0x1EDC6F41 *)

(* Eight 256-entry tables, flattened: [tables.(k * 256 + n)] is the crc
   contribution of byte [n] followed by [k] zero bytes. Table 0 is the
   classic byte-at-a-time table. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor poly else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] tab k n = Array.unsafe_get tables ((k lsl 8) lor n)
let[@inline] step_byte c b = tab 0 ((c lxor b) land 0xFF) lxor (c lsr 8)

(* Fold four little-endian bytes [w] into [c]. *)
let[@inline] step4 c w =
  let x = c lxor w in
  tab 3 (x land 0xFF)
  lxor tab 2 ((x lsr 8) land 0xFF)
  lxor tab 1 ((x lsr 16) land 0xFF)
  lxor tab 0 (x lsr 24)

(* Fold eight little-endian bytes, given as two 32-bit halves. *)
let[@inline] step8 c lo hi =
  let x = c lxor lo in
  tab 7 (x land 0xFF)
  lxor tab 6 ((x lsr 8) land 0xFF)
  lxor tab 5 ((x lsr 16) land 0xFF)
  lxor tab 4 (x lsr 24)
  lxor tab 3 (hi land 0xFF)
  lxor tab 2 ((hi lsr 8) land 0xFF)
  lxor tab 1 ((hi lsr 16) land 0xFF)
  lxor tab 0 (hi lsr 24)

(* [Int32.to_int] sign-extends; keep the low 32 bits only. *)
let[@inline] u32 buf i = Int32.to_int (Bytes.get_int32_le buf i) land 0xFFFFFFFF

let update_int c buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg
      (Printf.sprintf "Crc32c.update: range [%d, %d) out of bounds (length %d)" off (off + len)
         (Bytes.length buf));
  let c = ref c and i = ref off in
  let words_end = off + (len land lnot 7) in
  while !i < words_end do
    c := step8 !c (u32 buf !i) (u32 buf (!i + 4));
    i := !i + 8
  done;
  let stop = off + len in
  while !i < stop do
    c := step_byte !c (Char.code (Bytes.unsafe_get buf !i));
    i := !i + 1
  done;
  !c

let[@inline] to_native crc = Int32.to_int crc land 0xFFFFFFFF

let init () = 0xFFFFFFFFl
let finish crc = Int32.logxor crc 0xFFFFFFFFl
let update crc buf off len = Int32.of_int (update_int (to_native crc) buf off len)
let bytes buf off len = Int32.of_int (update_int 0xFFFFFFFF buf off len lxor 0xFFFFFFFF)
let string s = bytes (Bytes.unsafe_of_string s) 0 (String.length s)

let int64 crc v =
  let lo = Int64.to_int v land 0xFFFFFFFF in
  let hi = Int64.to_int (Int64.shift_right_logical v 32) in
  Int32.of_int (step8 (to_native crc) lo hi)

let int32 crc v = Int32.of_int (step4 (to_native crc) (to_native v))
let int64_crc v = finish (int64 (init ()) v)

(* ------------------------------------------------------------------ *)
(* Packed self-checking words.

   A [packed] word stores a value < 2^32 in the low half of an int64
   and crc32c(value_le ++ salt_le) in the high half. The all-zero word
   decodes as value 0, so freshly zeroed NVMM parses as valid empty
   state; any other corruption of either half is detected. *)

let mix ~salt v =
  let c = init () in
  let c = int32 c (Int64.to_int32 v) in
  let c = int32 c (Int32.of_int salt) in
  finish c

let pack ?(salt = 0) v =
  if Int64.logand v 0xFFFFFFFF00000000L <> 0L then
    invalid_arg (Printf.sprintf "Crc32c.pack: value %Ld exceeds 32 bits" v);
  if v = 0L then 0L
  else
    let crc = mix ~salt v in
    Int64.logor v (Int64.shift_left (Int64.logand (Int64.of_int32 crc) 0xFFFFFFFFL) 32)

let unpack ?(salt = 0) w =
  if w = 0L then Some 0L
  else
    let v = Int64.logand w 0xFFFFFFFFL in
    let stored = Int64.to_int32 (Int64.shift_right_logical w 32) in
    if stored = mix ~salt v then Some v else None

let pack_int ?salt v = pack ?salt (Int64.of_int v)

let unpack_int ?salt w =
  match unpack ?salt w with Some v -> Some (Int64.to_int v) | None -> None
