(** Packed bit vectors.

    A provider's local membership vector over n owners, and each row/column of
    the index matrices, are bit vectors; at the paper's scale (10,000 providers
    x thousands of identities) packing is what keeps whole-network experiments
    in memory. *)

type t

val create : int -> t
(** [create len] is an all-zero vector of [len] bits. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val assign : t -> int -> bool -> unit
val count : t -> int
(** Number of set bits. *)

val copy : t -> t
val equal : t -> t -> bool
val fill : t -> bool -> unit

val union : t -> t -> t
(** Bitwise or; operands must have equal length. *)

val inter : t -> t -> t
(** Bitwise and; operands must have equal length. *)

val diff : t -> t -> t
(** Bits set in the first operand but not the second. *)

val iter_set : (int -> unit) -> t -> unit
(** Iterate the indexes of set bits in increasing order. *)

val to_index_list : t -> int list
val of_index_list : int -> int list -> t
val fold_set : ('a -> int -> 'a) -> 'a -> t -> 'a
val pp : Format.formatter -> t -> unit

val ctz : int -> int
(** Index of the lowest set bit of an int (63 for 0): the trailing-zero
    count, one instruction. *)

val max_bits : int
(** 56: the widest field {!get_bits} and {!set_bits} move in one call. *)

val get_bits : t -> int -> int -> int
(** [get_bits t i n] is bits [i .. i+n-1] of [t] as an int, bit [i]
    lowest, for word-at-a-time codecs.
    @raise Invalid_argument unless [0 <= n <= max_bits] and
    [0 <= i <= i + n <= length t]. *)

val set_bits : t -> int -> int -> int -> unit
(** [set_bits t i n v] overwrites bits [i .. i+n-1] of [t] with the low
    [n] bits of [v] (bits of [v] above [n] are ignored).
    @raise Invalid_argument as {!get_bits}. *)
