(** The twisted Edwards form of Curve25519 (edwards25519, RFC 8032
    §5.1) over {!Fe25519}: the group arithmetic shared by {!Ed25519}
    and the fixed-point paths of {!Curve25519}.

    {!scalarmult_table} is a ref10-style comb over a table of
    [(j+1)·256^i·P] (i < 32, j < 8) for a point [P] fixed in advance:
    {!table_of_point} builds one (about 1.6 ms), and the base point's is
    built when the module is initialised, for {!scalarmult_base}.  The
    comb runs in constant time in the scalar; a table is immutable once
    built, so several domains may share it.  {!scalarmult} is the
    generic double-and-add ladder, kept for points that vary and as the
    comb's test oracle. *)

type point = { x : Fe25519.t; y : Fe25519.t; z : Fe25519.t; t : Fe25519.t }
(** Extended coordinates: [x = X/Z], [y = Y/Z], [xy = T/Z]. *)

val base : unit -> point
(** A fresh copy of the base point B. *)

val add : point -> point -> unit
(** [add p q] is [p <- p + q] (complete: [q] may be [p]). *)

val scalarmult : point -> bytes -> point
(** [scalarmult q s] is [s·q] for any 32-byte little-endian [s], by a
    constant-time ladder over all 256 bits. *)

type table
(** The precomputed multiples of one point, 30 KB. *)

val table_of_point : point -> table
(** [table_of_point p] holds [(j+1)·256^i·p] in affine form, normalised
    with one batched inversion.  [p] must be on the curve. *)

val scalarmult_table : table -> bytes -> point
(** [scalarmult_table (table_of_point p) a] is [a·p] for a 32-byte
    little-endian [a] below [2^255] (clamped and reduced scalars both
    qualify); raises [Invalid_argument] otherwise. *)

val scalarmult_base : bytes -> point
(** [scalarmult_base a] is [scalarmult_table] over the base point's
    table: [a·B], with the same precondition on [a]. *)

val encode : point -> bytes
(** RFC 8032 compression: [y] with the sign of [x] in the top bit. *)

val decode_neg : bytes -> point option
(** Decompress an encoded point and negate it ([None] when it is not on
    the curve): verification computes [sB + h·(-A)]. *)
