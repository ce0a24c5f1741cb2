(* 64/32-bit machine-word arithmetic shared by the verifier's abstract
   domain and the concrete interpreter.  eBPF semantics: 32-bit (ALU32)
   operations compute on the low 32 bits and zero-extend the result into
   the destination register. *)

let mask32 = 0xFFFF_FFFFL

let to_u32 (x : int64) : int64 = Int64.logand x mask32

(* Sign-extend the low [bits] bits of [x] to 64 bits. *)
let sext (bits : int) (x : int64) : int64 =
  let shift = 64 - bits in
  Int64.shift_right (Int64.shift_left x shift) shift

let sext8 x = sext 8 x
let sext16 x = sext 16 x
let sext32 x = sext 32 x

(* Truncate to an unsigned [bits]-bit value (zero-extended). *)
let zext (bits : int) (x : int64) : int64 =
  if bits >= 64 then x
  else Int64.logand x (Int64.sub (Int64.shift_left 1L bits) 1L)

let zext8 x = zext 8 x
let zext16 x = zext 16 x

(* Unsigned comparison on int64 bit patterns. *)
let ucmp (a : int64) (b : int64) : int = Int64.unsigned_compare a b
let ult a b = ucmp a b < 0
let ule a b = ucmp a b <= 0
let ugt a b = ucmp a b > 0
let uge a b = ucmp a b >= 0

let umin a b = if ult a b then a else b
let umax a b = if ugt a b then a else b
let smin (a : int64) b = if a < b then a else b
let smax (a : int64) b = if a > b then a else b

(* eBPF division semantics: division by zero yields 0, modulo by zero
   yields the dividend; BPF_DIV/BPF_MOD are unsigned unless the offset
   field selects the signed variant (not modelled here - we expose both). *)
let udiv a b = if b = 0L then 0L else Int64.unsigned_div a b
let umod a b = if b = 0L then a else Int64.unsigned_rem a b
let sdiv a b =
  if b = 0L then 0L
  else if a = Int64.min_int && b = -1L then Int64.min_int
  else Int64.div a b
let smod a b =
  if b = 0L then a
  else if a = Int64.min_int && b = -1L then 0L
  else Int64.rem a b

(* Shifts: eBPF masks the shift amount to the operand width. *)
let shl64 a b = Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
let shr64 a b = Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
let ashr64 a b = Int64.shift_right a (Int64.to_int (Int64.logand b 63L))

let shl32 a b =
  to_u32 (Int64.shift_left (to_u32 a) (Int64.to_int (Int64.logand b 31L)))
let shr32 a b =
  Int64.shift_right_logical (to_u32 a) (Int64.to_int (Int64.logand b 31L))
let ashr32 a b =
  to_u32
    (Int64.shift_right (sext32 a) (Int64.to_int (Int64.logand b 31L)))

let bswap16 (x : int64) : int64 =
  let x = Int64.to_int (zext16 x) in
  Int64.of_int (((x land 0xff) lsl 8) lor ((x lsr 8) land 0xff))

let bswap32 (x : int64) : int64 =
  let b i = Int64.to_int (Int64.logand (shr64 x (Int64.of_int (i * 8))) 0xffL) in
  let combine acc byte = Int64.logor (Int64.shift_left acc 8) (Int64.of_int byte) in
  List.fold_left combine 0L [ b 0; b 1; b 2; b 3 ]

let bswap64 (x : int64) : int64 =
  let b i = Int64.to_int (Int64.logand (shr64 x (Int64.of_int (i * 8))) 0xffL) in
  let combine acc byte = Int64.logor (Int64.shift_left acc 8) (Int64.of_int byte) in
  List.fold_left combine 0L [ b 0; b 1; b 2; b 3; b 4; b 5; b 6; b 7 ]

(* Read/write little-endian values of [sz] bytes inside a Bytes.t.  The
   access widths eBPF has (1/2/4/8) go through the stdlib fixed-width
   accessors; any other size falls back to a byte loop. *)
let get_le (data : Bytes.t) (off : int) (sz : int) : int64 =
  match sz with
  | 1 -> Int64.of_int (Bytes.get_uint8 data off)
  | 2 -> Int64.of_int (Bytes.get_uint16_le data off)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le data off)) mask32
  | 8 -> Bytes.get_int64_le data off
  | _ ->
    let rec build i acc =
      if i >= sz then acc
      else
        build (i + 1)
          (Int64.logor acc
             (Int64.shift_left
                (Int64.of_int (Char.code (Bytes.get data (off + i))))
                (8 * i)))
    in
    build 0 0L

let set_le (data : Bytes.t) (off : int) (sz : int) (v : int64) : unit =
  match sz with
  | 1 -> Bytes.set_uint8 data off (Int64.to_int v land 0xff)
  | 2 -> Bytes.set_uint16_le data off (Int64.to_int v land 0xffff)
  | 4 -> Bytes.set_int32_le data off (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le data off v
  | _ ->
    for i = 0 to sz - 1 do
      let byte =
        Int64.to_int
          (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)
      in
      Bytes.set data (off + i) (Char.chr byte)
    done
