(** Compact binary serialization of a published {!Eppi.Index}.

    The one serialized form of an index: the payload of a binary
    republish frame, and, behind a magic, the index file on disk
    ({!Index_file}).  It replaced CSV, one ASCII [j,p] line (~9 bytes)
    per published cell: rows are Rice-coded gap sequences (near the
    entropy of a sparse row, ~8 bits per cell at the bench's n=2000 x
    m=1024 scale) or raw bitmaps when dense, self-describing and
    versioned, and roughly an order of magnitude smaller than the CSV.
    Both directions work a machine word at a time (64-bit loads,
    trailing-ones counts for the unary quotients, word copies of bitmap
    rows), producing the same bytes a bit-at-a-time coder would.

    Layout (codec version 1; varints are unsigned LEB128; the body is one
    continuous bit stream, LSB-first within each byte, zero-padded to a
    byte boundary only at the very end):

    {v
    byte 0        codec version (1)
    varint        owners  n  (>= 1)
    varint        providers m  (>= 1)
    n varints     row counts c_0 .. c_{n-1}, each in [0, m]
    bit stream    row bodies, concatenated.  Row j with c = c_j:
                    c = 0:         nothing
                    3c >= m:       m bits of bitmap (stream bit p = column p)
                    else:          c Rice-coded gaps g_0 = p_0,
                                   g_i = p_i - p_{i-1} - 1; each gap is
                                   ⌊g / 2^k⌋ 1-bits, a 0-bit, then the k
                                   low bits of g
    v}

    The Rice parameter [k] is derived identically on both sides from
    [(c, m)] — the nearest power of two to [ln 2 * (m - c)/(c + 1)], the
    mean gap rule — so the format spends no bits on it, and the per-row
    bitmap/gaps choice is the shared [3c >= m] density rule, so no
    per-row flag is spent either.  Encoding gaps rather than absolute ids
    makes strict ascent structural: any decoded row is sorted by
    construction.

    Decoding validates everything it reads: version, dimensions, counts,
    bit-population, ordering, range, padding, and exact payload length.
    Dimensions are bounded {e before} anything is allocated from them
    (the row-count array and the n x m matrix), so a small hostile
    header cannot demand a huge allocation.  Malformed input is a typed
    {!error}, never an exception — the daemon feeds this decoder bytes
    that arrived off the network. *)

val codec_version : int
(** The version byte leading every encoded index (currently 1). *)

type error =
  | Unsupported_version of int  (** First byte is not a known version. *)
  | Truncated of string  (** Input ended inside the named field. *)
  | Malformed of string  (** Structurally invalid (bad count, id out of
                             range, unsorted row, nonzero padding, …). *)

val error_to_string : error -> string

val encode : Eppi.Index.t -> string
(** Serialize the index.  Deterministic: equal matrices encode to equal
    strings. *)

val decode : string -> (Eppi.Index.t, error) result
(** Inverse of {!encode}.  Total: any input returns [Ok] or a typed
    [Error]; [decode (encode i)] is an index with the same matrix. *)

val encoded_bytes : Eppi.Index.t -> int
(** Size of {!encode}'s output without materializing it (exact). *)
