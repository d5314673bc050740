(** X25519 Diffie-Hellman scalar multiplication (RFC 7748), pure OCaml
    over the 51-bit-limb {!Fe25519} (the seed's 16-bit-limb ladder lives
    on in [Curve25519_ref] among the test oracles as the differential-testing oracle).

    This is the dominant CPU cost of Vuvuzela's servers (§8.2 of the
    paper); the simulator's cost model is calibrated against this module's
    measured throughput and against the paper's reported 340K ops/s per
    36-core server.  [scalarmult] is the Montgomery ladder, for points
    that vary.  Every onion layer a client or a noise-generating server
    wraps instead costs two precomputed Edwards combs, each mapped back
    to the Montgomery u-coordinate: [scalarmult_base] for the ephemeral
    key, over {!Edwards25519.scalarmult_base}'s table, and
    [scalarmult_table] for the DH against the server key, over that
    key's {!point_table}.  All three are constant time in the scalar
    and agree bit for bit with the ladder. *)

val key_len : int
(** 32. *)

val scalar_len : int
(** 32. *)

val clamp : bytes -> bytes
(** RFC 7748 scalar clamping (non-destructive copy). *)

val scalarmult : scalar:bytes -> point:bytes -> bytes
(** [scalarmult ~scalar ~point] is X25519(scalar, point).  The scalar is
    clamped internally. *)

val base_point : bytes
(** The u-coordinate 9. *)

val scalarmult_base : bytes -> bytes
(** Public key from a 32-byte secret: equal to
    [scalarmult ~scalar ~point:base_point], about 3x faster. *)

type table
(** A precomputed comb for one fixed point (30 KB). *)

val point_table : bytes -> table option
(** [point_table u] maps the point with u-coordinate [u] to the Edwards
    curve and builds its {!Edwards25519.table_of_point} comb (about
    1.6 ms).  [None] for u = -1, which has no Edwards image, and for
    points on the twist; those keep the ladder. *)

val scalarmult_table : table -> bytes -> bytes
(** [scalarmult_table t scalar] with [t = point_table u] is
    [scalarmult ~scalar ~point:u], bit for bit, at the cost of a comb
    instead of a ladder.  The scalar is clamped internally. *)

val shared : secret:bytes -> public:bytes -> bytes
(** Raw shared point; derive symmetric keys via {!Hkdf} (see {!Box}). *)
