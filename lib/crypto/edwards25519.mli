(** The twisted Edwards form of Curve25519 (edwards25519, RFC 8032
    §5.1) over {!Fe25519}: the group arithmetic shared by {!Ed25519}
    and the fixed-base path of {!Curve25519}.

    {!scalarmult_base} is a ref10-style comb over a table of
    [(j+1)·256^i·B] (i < 32, j < 8) computed from the base point when
    the module is initialised; it runs in constant time and is safe to
    call from several domains at once.  {!scalarmult} is the generic
    double-and-add ladder, kept for arbitrary points and as the comb's
    test oracle. *)

type point = { x : Fe25519.t; y : Fe25519.t; z : Fe25519.t; t : Fe25519.t }
(** Extended coordinates: [x = X/Z], [y = Y/Z], [xy = T/Z]. *)

val base : unit -> point
(** A fresh copy of the base point B. *)

val add : point -> point -> unit
(** [add p q] is [p <- p + q] (complete: [q] may be [p]). *)

val scalarmult : point -> bytes -> point
(** [scalarmult q s] is [s·q] for any 32-byte little-endian [s], by a
    constant-time ladder over all 256 bits. *)

val scalarmult_base : bytes -> point
(** [scalarmult_base a] is [a·B] for a 32-byte little-endian [a] below
    [2^255] (clamped and reduced scalars both qualify); raises
    [Invalid_argument] otherwise. *)

val encode : point -> bytes
(** RFC 8032 compression: [y] with the sign of [x] in the top bit. *)

val decode_neg : bytes -> point option
(** Decompress an encoded point and negate it ([None] when it is not on
    the curve): verification computes [sB + h·(-A)]. *)
