type t = { len : int; data : Bytes.t }

(* Built eagerly: [count] runs on daemon worker domains (the index
   decoder checks bitmap rows with it), and forcing one lazy value from
   two domains at once raises. *)
let popcount_table =
  Array.init 256 (fun b ->
      let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
      go b 0)

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; data = Bytes.make ((len + 7) / 8) '\000' }

let length t = t.len

(* A 64-bit load shifted right by up to 7 keeps 57 bits, of which an int
   holds all. *)
let max_bits = 56

let check t i = if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.data b
    (Char.chr (Char.code (Bytes.unsafe_get t.data b) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.data b
    (Char.chr (Char.code (Bytes.unsafe_get t.data b) land lnot (1 lsl (i land 7)) land 0xff))

let assign t i v = if v then set t i else clear t i

let count t =
  let acc = ref 0 in
  for b = 0 to Bytes.length t.data - 1 do
    acc := !acc + popcount_table.(Char.code (Bytes.unsafe_get t.data b))
  done;
  !acc

let copy t = { len = t.len; data = Bytes.copy t.data }
let equal a b = a.len = b.len && Bytes.equal a.data b.data

let fill t v =
  if not v then Bytes.fill t.data 0 (Bytes.length t.data) '\000'
  else begin
    Bytes.fill t.data 0 (Bytes.length t.data) '\255';
    (* Keep the padding bits of the final byte zero so [count] stays exact. *)
    let rem = t.len land 7 in
    if rem <> 0 && Bytes.length t.data > 0 then
      Bytes.set t.data
        (Bytes.length t.data - 1)
        (Char.chr ((1 lsl rem) - 1))
  end

let binop op a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch";
  let r = create a.len in
  for i = 0 to Bytes.length a.data - 1 do
    Bytes.unsafe_set r.data i
      (Char.chr (op (Char.code (Bytes.unsafe_get a.data i)) (Char.code (Bytes.unsafe_get b.data i))))
  done;
  r

let union = binop ( lor )
let inter = binop ( land )
let diff = binop (fun x y -> x land lnot y land 0xff)

external ctz : (int[@untagged]) -> (int[@untagged])
  = "eppi_prelude_ctz_byte" "eppi_prelude_ctz"
[@@noalloc]

(* The storage from byte [b] on, little-endian, as an int: its low 63 bits
   are storage bits, and bytes past the end read as 0. *)
let load data b =
  if b + 8 <= Bytes.length data then Int64.to_int (Bytes.get_int64_le data b)
  else begin
    let v = ref 0 in
    for i = Bytes.length data - 1 downto b do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get data i)
    done;
    !v
  end

(* Word-at-a-time scan: 7 storage bytes (56 bits) per step, so an all-zero
   stretch (the common case in sparse rows) costs one test and each set
   bit one trailing-zero count.  The padding bits of the last byte are
   maintained zero by every writer here, so scanning whole bytes never
   yields an out-of-range index. *)
let iter_set f t =
  let nbytes = Bytes.length t.data in
  let b = ref 0 in
  while !b < nbytes do
    let v = ref (load t.data !b land 0xFF_FFFF_FFFF_FFFF) in
    let base = !b lsl 3 in
    while !v <> 0 do
      f (base + ctz !v);
      v := !v land (!v - 1)
    done;
    b := !b + 7
  done

let of_index_list len idxs =
  let t = create len in
  List.iter (fun i -> set t i) idxs;
  t

let fold_set f init t =
  let acc = ref init in
  iter_set (fun i -> acc := f !acc i) t;
  !acc

let to_index_list t = List.rev (fold_set (fun acc i -> i :: acc) [] t)

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done

let check_bits name t i n =
  if n < 0 || n > max_bits || i < 0 || i + n > t.len then invalid_arg name

let get_bits t i n =
  check_bits "Bitvec.get_bits" t i n;
  (load t.data (i lsr 3) lsr (i land 7)) land ((1 lsl n) - 1)

let set_bits t i n v =
  check_bits "Bitvec.set_bits" t i n;
  let b = i lsr 3 and sh = i land 7 in
  let mask = (1 lsl n) - 1 in
  let v = v land mask in
  if b + 8 <= Bytes.length t.data then begin
    let old = Bytes.get_int64_le t.data b in
    let m = Int64.shift_left (Int64.of_int mask) sh in
    Bytes.set_int64_le t.data b
      (Int64.logor (Int64.logand old (Int64.lognot m)) (Int64.shift_left (Int64.of_int v) sh))
  end
  else if n > 0 then begin
    (* Near the end: rewrite the touched bytes one at a time.  Only bits
       below [len] change, so the padding stays zero. *)
    let last = (i + n - 1) lsr 3 in
    let w = (load t.data b land lnot (mask lsl sh)) lor (v lsl sh) in
    for k = 0 to last - b do
      Bytes.unsafe_set t.data (b + k) (Char.unsafe_chr ((w lsr (k lsl 3)) land 0xFF))
    done
  end
