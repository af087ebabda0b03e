open Eppi_prelude

let codec_version = 1

type error =
  | Unsupported_version of int
  | Truncated of string
  | Malformed of string

let error_to_string = function
  | Unsupported_version v -> Printf.sprintf "unsupported index codec version %d" v
  | Truncated what -> Printf.sprintf "truncated input (%s)" what
  | Malformed msg -> Printf.sprintf "malformed index: %s" msg

(* floor(log2 x) for x >= 1 *)
let ilog2 x =
  let k = ref 0 and v = ref x in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* Rice parameter for a row of [c] ids out of [m] providers.  The gaps of a
   uniformly sparse row are near-geometric with mean mu = (m - c)/(c + 1);
   the classic rule 2^k ~ ln(2) * mu picks the parameter within a fraction
   of a bit of the Golomb optimum.  Computed in integer arithmetic (scaled
   by 1000, rounded to the nearest power of two in log space) so encoder
   and decoder derive the identical k from (c, m) alone — the format spends
   no bits on it. *)
let rice_k ~c ~m =
  let mu_scaled = 693 * (m - c) / (1000 * (c + 1)) in
  if mu_scaled <= 1 then 0
  else
    let k = ilog2 mu_scaled in
    if 2 * mu_scaled > 3 * (1 lsl k) then k + 1 else k

(* A row dense enough that Rice gaps would cost about as much as the raw
   m-bit bitmap (mean gap <= 2, so >= ~1/3 density) is stored as the
   bitmap.  Both sides apply this rule, so no per-row flag is spent. *)
let row_is_bitmap ~m count = 3 * count >= m

(* ---- unsigned LEB128 (byte-aligned header fields) ---- *)

let put_uvarint b n =
  let u = ref n in
  let continue = ref true in
  while !continue do
    let byte = !u land 0x7F in
    u := !u lsr 7;
    if !u = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let uvarint_bytes n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

exception Fail of error

let truncated what = raise (Fail (Truncated what))
let malformed msg = raise (Fail (Malformed msg))

(* Error labels are built only on the error path, never per row. *)
let row_label j = Printf.sprintf "row %d" j

type cursor = { payload : string; mutable pos : int }

(* [what ()] names the field, for the error message. *)
let get_uvarint c ~what =
  let u = ref 0 and shift = ref 0 and value = ref (-1) in
  while !value < 0 do
    if c.pos >= String.length c.payload then truncated (what ());
    if !shift > 56 then malformed (what () ^ ": varint longer than 9 bytes");
    let byte = Char.code (String.unsafe_get c.payload c.pos) in
    c.pos <- c.pos + 1;
    u := !u lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then value := !u
  done;
  !value

(* ---- bit stream (row bodies) ----

   Bits are appended LSB-first within each byte: stream bit i is
   [(byte i/8 lsr (i mod 8)) land 1].  The whole body is one continuous
   stream; only the final byte is padded (with zero bits), so per-row
   alignment costs nothing.  Both directions move whole words: the writer
   packs up to [max_put] bits per call and stores 64 bits at a time, the
   reader loads 64 bits at a time. *)

(* The writer owns its output bytes: [len] bytes are final, and [acc]
   holds the [nbits] (< 16) pending stream bits, with every bit above
   them 0. *)
type writer = { mutable out : Bytes.t; mutable len : int; mutable acc : int; mutable nbits : int }

(* Keeps [nbits] + [max_put] <= 62, so [acc] stays a non-negative int. *)
let max_put = 47

let reserve w extra =
  if w.len + extra > Bytes.length w.out then begin
    let out = Bytes.create (max (w.len + extra) (2 * Bytes.length w.out)) in
    Bytes.blit w.out 0 out 0 w.len;
    w.out <- out
  end

(* Append the [n] low bits of [v] (n <= [max_put], v < 2^n).  Once 16 or
   more bits are pending, all of them are stored as one 64-bit word, and
   the whole 16-bit units among them become final. *)
let put_bits w v n =
  w.acc <- w.acc lor (v lsl w.nbits);
  w.nbits <- w.nbits + n;
  if w.nbits >= 16 then begin
    reserve w 8;
    Bytes.set_int64_le w.out w.len (Int64.of_int w.acc);
    let units = w.nbits lsr 4 in
    w.len <- w.len + (units lsl 1);
    w.acc <- w.acc lsr (units lsl 4);
    w.nbits <- w.nbits land 15
  end

let rec put_ones w q =
  if q <= max_put then put_bits w ((1 lsl q) - 1) q
  else begin
    put_bits w ((1 lsl max_put) - 1) max_put;
    put_ones w (q - max_put)
  end

(* Pad the stream to a byte boundary and return everything written. *)
let finish_writer w =
  reserve w 8;
  while w.nbits > 0 do
    Bytes.set w.out w.len (Char.unsafe_chr (w.acc land 0xFF));
    w.len <- w.len + 1;
    w.acc <- w.acc lsr 8;
    w.nbits <- w.nbits - 8
  done;
  Bytes.sub_string w.out 0 w.len

(* [pos] and [limit] are bit offsets from byte [base]; [limit] is every bit
   the payload holds past [base], so reading beyond it is truncation. *)
type reader = { src : string; base : int; limit : int; mutable pos : int }

let reader (c : cursor) =
  { src = c.payload; base = c.pos; limit = (String.length c.payload - c.pos) * 8; pos = 0 }

(* Stream bits guaranteed valid in a [peek]: a 64-bit load shifted right
   by up to 7 keeps 57 bits, of which an OCaml int holds all. *)
let window = 56

(* The stream bits from bit [bit] on, as an int: at least [window] of its
   low bits are stream bits, and bits past the payload's end read as 0. *)
let peek r bit =
  let byte = r.base + (bit lsr 3) in
  if byte + 8 <= String.length r.src then
    Int64.to_int (Int64.shift_right_logical (String.get_int64_le r.src byte) (bit land 7))
  else begin
    let v = ref 0 in
    for i = String.length r.src - 1 downto byte do
      v := (!v lsl 8) lor Char.code (String.unsafe_get r.src i)
    done;
    !v lsr (bit land 7)
  end

let trailing_ones w = Bitvec.ctz (lnot w)

(* Close the body stream: zero pad bits to the byte boundary, exact length. *)
let finish_reader r (c : cursor) =
  let pad = (8 - (r.pos land 7)) land 7 in
  if pad > 0 && peek r r.pos land ((1 lsl pad) - 1) <> 0 then malformed "nonzero padding bits";
  c.pos <- r.base + ((r.pos + 7) lsr 3)

(* ---- row bodies ---- *)

(* Gaps: g_0 = p_0 and g_i = p_i - p_{i-1} - 1, so strictly ascending rows
   are exactly the rows with all gaps >= 0 — ordering is free by
   construction on both sides.  Each gap is Rice-coded: quotient
   [g lsr k] in unary (that many 1-bits, then a 0), then the k low bits. *)

let rice_row_bits row ~c ~m =
  let k = rice_k ~c ~m in
  let bits = ref 0 and prev = ref (-1) in
  Bitvec.iter_set (fun p ->
      let g = p - !prev - 1 in
      prev := p;
      bits := !bits + (g lsr k) + 1 + k)
    row;
  !bits

let row_bits row ~c ~m = if row_is_bitmap ~m c then m else rice_row_bits row ~c ~m

(* The bitmap of a row is the row itself (stream bit p = column p),
   moved 32 bits at a time. *)
let put_bitmap w row ~m =
  let i = ref 0 in
  while !i < m do
    let n = min 32 (m - !i) in
    put_bits w (Bitvec.get_bits row !i n) n;
    i := !i + n
  done

let put_rice_row w row ~c ~m =
  let k = rice_k ~c ~m in
  let mask = (1 lsl k) - 1 in
  let prev = ref (-1) in
  Bitvec.iter_set (fun p ->
      let g = p - !prev - 1 in
      prev := p;
      let q = g lsr k in
      if q + 1 + k <= max_put then
        put_bits w (((1 lsl q) - 1) lor ((g land mask) lsl (q + 1))) (q + 1 + k)
      else begin
        put_ones w q;
        put_bits w ((g land mask) lsl 1) (k + 1)
      end)
    row

let put_row w row ~c ~m =
  if row_is_bitmap ~m c then put_bitmap w row ~m else put_rice_row w row ~c ~m

(* A bitmap row lands in the row [window] bits at a time; [set_bits]
   keeps only the bits that belong to the row. *)
let get_bitmap_row r row ~j ~c ~m =
  if r.pos + m > r.limit then truncated (row_label j);
  let i = ref 0 in
  while !i < m do
    let n = min window (m - !i) in
    Bitvec.set_bits row !i n (peek r (r.pos + !i));
    i := !i + n
  done;
  r.pos <- r.pos + m;
  let set = Bitvec.count row in
  if set <> c then
    malformed (Printf.sprintf "row %d: bitmap population %d, declared count %d" j set c)

(* A valid gap never exceeds m, so neither does its quotient: a unary run
   longer than [m lsr k] is rejected as soon as it is counted. *)
let gap_exceeds j = malformed (row_label j ^ ": gap exceeds provider count")

(* A gap whose unary run does not fit one window with its remainder:
   count ones a window at a time.  Every 1-bit counted is a payload bit
   (bits past the end read as 0), so the checks fire exactly where a
   bit-by-bit reader's would. *)
let get_long_gap r ~j ~k ~qmax =
  let q = ref 0 and stop = ref false in
  while not !stop do
    let t = min window (trailing_ones (peek r r.pos)) in
    if !q + t > qmax then gap_exceeds j;
    if t < window then begin
      if r.pos + t + 1 > r.limit then truncated (row_label j);
      r.pos <- r.pos + t + 1;
      q := !q + t;
      stop := true
    end
    else begin
      r.pos <- r.pos + window;
      q := !q + window
    end
  done;
  if r.pos + k > r.limit then truncated (row_label j);
  let low = peek r r.pos land ((1 lsl k) - 1) in
  r.pos <- r.pos + k;
  (!q lsl k) lor low

let get_rice_row r row ~j ~c ~m =
  let k = rice_k ~c ~m in
  let mask = (1 lsl k) - 1 and qmax = m lsr k in
  let prev = ref (-1) in
  for _ = 1 to c do
    let w = peek r r.pos in
    let t = trailing_ones w in
    let g =
      if t + 1 + k <= window then begin
        (* Quotient, stop bit and remainder all sit in this window. *)
        if t > qmax then gap_exceeds j;
        let n = t + 1 + k in
        if r.pos + n > r.limit then truncated (row_label j);
        r.pos <- r.pos + n;
        (t lsl k) lor ((w lsr (t + 1)) land mask)
      end
      else get_long_gap r ~j ~k ~qmax
    in
    let p = !prev + 1 + g in
    if p >= m then malformed (Printf.sprintf "row %d: provider %d >= %d" j p m);
    prev := p;
    Bitvec.set row p
  done

let get_row r matrix ~j ~c ~m =
  let row = Bitmatrix.row matrix j in
  if row_is_bitmap ~m c then get_bitmap_row r row ~j ~c ~m else get_rice_row r row ~j ~c ~m

(* ---- encoding ---- *)

let row_counts matrix =
  Array.init (Bitmatrix.rows matrix) (fun j -> Bitmatrix.row_count matrix j)

let encoded_bytes index =
  let matrix = Eppi.Index.matrix index in
  let n = Bitmatrix.rows matrix and m = Bitmatrix.cols matrix in
  let counts = row_counts matrix in
  let header =
    Array.fold_left
      (fun acc c -> acc + uvarint_bytes c)
      (1 + uvarint_bytes n + uvarint_bytes m)
      counts
  in
  let body_bits = ref 0 in
  for j = 0 to n - 1 do
    body_bits := !body_bits + row_bits (Bitmatrix.row matrix j) ~c:counts.(j) ~m
  done;
  header + ((!body_bits + 7) / 8)

let encode index =
  let matrix = Eppi.Index.matrix index in
  let n = Bitmatrix.rows matrix and m = Bitmatrix.cols matrix in
  let counts = row_counts matrix in
  let header = Buffer.create (16 + (2 * n)) in
  Buffer.add_char header (Char.chr codec_version);
  put_uvarint header n;
  put_uvarint header m;
  Array.iter (put_uvarint header) counts;
  let w =
    { out = Bytes.create (Buffer.length header + 64 + (n * m / 16)); len = 0; acc = 0; nbits = 0 }
  in
  Buffer.blit header 0 w.out 0 (Buffer.length header);
  w.len <- Buffer.length header;
  for j = 0 to n - 1 do
    put_row w (Bitmatrix.row matrix j) ~c:counts.(j) ~m
  done;
  finish_writer w

(* ---- decoding ---- *)

let dims_limit = 1 lsl 30

(* The matrix materializes n*m bits no matter how sparse the payload is,
   so the header alone could demand an arbitrarily large allocation —
   attacker-controlled n and m must be bounded BEFORE anything is sized
   from them, not after.  [cells_limit] caps the product (2^33 bits =
   1 GiB of backing), far above any index this daemon serves but far
   below an allocation that would take the process down. *)
let cells_limit = 1 lsl 33

let decode_exn payload =
  let c = { payload; pos = 0 } in
  if String.length payload = 0 then truncated "version byte";
  let v = Char.code payload.[0] in
  c.pos <- 1;
  if v <> codec_version then raise (Fail (Unsupported_version v));
  let n = get_uvarint c ~what:(fun () -> "owner count") in
  let m = get_uvarint c ~what:(fun () -> "provider count") in
  if n < 1 || n > dims_limit then malformed (Printf.sprintf "owner count %d" n);
  if m < 1 || m > dims_limit then malformed (Printf.sprintf "provider count %d" m);
  if n * m > cells_limit then
    malformed (Printf.sprintf "matrix %dx%d exceeds %d cells" n m cells_limit);
  (* Every row count costs at least one byte, so a payload with fewer
     remaining bytes than rows is guaranteed truncated — reject before
     the counts array (n words) is allocated. *)
  if n > String.length payload - c.pos then truncated "row counts";
  let counts =
    Array.init n (fun j ->
        let cnt = get_uvarint c ~what:(fun () -> Printf.sprintf "count of row %d" j) in
        if cnt > m then malformed (Printf.sprintf "row %d count %d exceeds %d providers" j cnt m);
        cnt)
  in
  let matrix = Bitmatrix.create ~rows:n ~cols:m in
  let r = reader c in
  for j = 0 to n - 1 do
    get_row r matrix ~j ~c:counts.(j) ~m
  done;
  finish_reader r c;
  if c.pos <> String.length payload then
    malformed (Printf.sprintf "%d trailing bytes" (String.length payload - c.pos));
  Eppi.Index.of_matrix matrix

let decode payload =
  match decode_exn payload with
  | index -> Ok index
  | exception Fail e -> Error e
  (* Defense in depth behind the dimension caps: the total Ok/Error
     contract must hold even if an allocation still fails — this decoder
     runs on daemon domains fed bytes off the network, and an escaped
     Out_of_memory would kill a worker (inline, the whole daemon). *)
  | exception Out_of_memory -> Error (Malformed "index too large to materialize")
  | exception Invalid_argument msg -> Error (Malformed msg)
