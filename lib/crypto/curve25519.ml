(* X25519 scalar multiplication (RFC 7748) over the shared Fe25519 field
   arithmetic.

   This is the paper's dominant cost: every onion layer wrap/unwrap is one
   scalar multiplication (§8.2, "each 36-core machine can perform about
   340,000 Curve25519 Diffie-Hellman operations per second").  The field
   is the 51-bit-limb Fe25519; the seed ladder is retained verbatim in
   Curve25519_ref (test/oracles) as the differential-testing oracle.

   Two paths, one per kind of input:
   - [scalarmult] (points that vary: every peel, sealed-box
     invitations, and keys with no table) runs the Montgomery ladder, a
     constant sequence of field operations per scalar bit;
   - [scalarmult_base] (the ephemeral public key of every wrap) and
     [scalarmult_table] (every wrapped layer's DH against a chain server
     key, over the table [point_table] builds once) compute a·P on the
     birationally equivalent Edwards curve with Edwards25519's comb and
     map the result to the Montgomery u = (1 + y)/(1 - y), about 3x
     fewer field operations than the ladder, which stays their oracle. *)

let key_len = 32
let scalar_len = 32

let clamp scalar =
  let z = Bytes.copy scalar in
  Bytes_util.set_u8 z 0 (Bytes_util.get_u8 z 0 land 248);
  Bytes_util.set_u8 z 31 ((Bytes_util.get_u8 z 31 land 127) lor 64);
  z

let ladder z (x : Fe25519.t) =
  let open Fe25519 in
  let a = create ()
  and b = copy x
  and c = create ()
  and d = create ()
  and e = create ()
  and f = create () in
  a.(0) <- 1;
  d.(0) <- 1;
  for i = 254 downto 0 do
    let r = (Bytes_util.get_u8 z (i lsr 3) lsr (i land 7)) land 1 in
    cswap a b r;
    cswap c d r;
    add e a c;
    sub a a c;
    add c b d;
    sub b b d;
    square d e;
    square f a;
    mul a c a;
    mul c b e;
    add e a c;
    sub a a c;
    square b a;
    sub c d f;
    mul_small a c 121665;
    add a a d;
    mul c c a;
    mul a d f;
    mul d b x;
    square b e;
    cswap a b r;
    cswap c d r
  done;
  let inv_c = create () in
  invert inv_c c;
  let out = create () in
  mul out a inv_c;
  pack out

let scalarmult ~scalar ~point =
  if Bytes.length scalar <> scalar_len then
    invalid_arg "Curve25519: bad scalar length";
  if Bytes.length point <> key_len then
    invalid_arg "Curve25519: bad point length";
  ladder (clamp scalar) (Fe25519.unpack point)

let base_point =
  let b = Bytes.make 32 '\000' in
  Bytes.set b 0 '\x09';
  b

(* Edwards (X:Y:Z:T) to Montgomery u = (1 + y)/(1 - y) = (Z + Y)/(Z - Y);
   the identity (Z = Y) gives invert 0 = 0, the ladder's answer too. *)
let u_of_edwards { Edwards25519.y; z; _ } =
  let open Fe25519 in
  let num = create () and den = create () in
  add num z y;
  sub den z y;
  invert den den;
  mul num num den;
  pack num

let scalarmult_base scalar =
  if Bytes.length scalar <> scalar_len then
    invalid_arg "Curve25519: bad scalar length";
  u_of_edwards (Edwards25519.scalarmult_base (clamp scalar))

type table = Edwards25519.table

(* u to Edwards: y = (u - 1)/(u + 1), then x from the curve equation by
   decode_neg.  Its sign is arbitrary and harmless, as u(a·P) = u(a·(-P)).
   None for u = -1 (no Edwards image) and for points on the twist (no
   x). *)
let point_table u =
  if Bytes.length u <> key_len then invalid_arg "Curve25519: bad point length";
  let open Fe25519 in
  let u = unpack u and num = create () and den = create () in
  sub num u (one ());
  add den u (one ());
  if equal den (zero ()) then None
  else begin
    invert den den;
    mul num num den;
    Option.map Edwards25519.table_of_point (Edwards25519.decode_neg (pack num))
  end

let scalarmult_table table scalar =
  if Bytes.length scalar <> scalar_len then
    invalid_arg "Curve25519: bad scalar length";
  u_of_edwards (Edwards25519.scalarmult_table table (clamp scalar))

(* Diffie-Hellman: the raw shared point is passed through HKDF before use
   as a symmetric key (see Box), matching best practice. *)
let shared ~secret ~public = scalarmult ~scalar:secret ~point:public
