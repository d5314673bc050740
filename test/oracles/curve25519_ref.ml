(* The seed X25519 scalar multiplication, kept verbatim over
   {!Fe25519_ref} as the ladder oracle: `test/prop/` checks full ladder
   agreement against {!Curve25519} over hundreds of seeded inputs, and
   `bench/main.exe` §Crypto reports the speedup of the 51-bit rewrite
   against this baseline.  Not used on any production path. *)

open Vuvuzela_crypto

let _121665 : Fe25519_ref.t =
  let a = Fe25519_ref.create () in
  a.(0) <- 0xdb41;
  a.(1) <- 1;
  a

let scalarmult ~scalar ~point =
  if Bytes.length scalar <> 32 then
    invalid_arg "Curve25519_ref: bad scalar length";
  if Bytes.length point <> 32 then
    invalid_arg "Curve25519_ref: bad point length";
  let open Fe25519_ref in
  let z = Bytes.copy scalar in
  Bytes_util.set_u8 z 0 (Bytes_util.get_u8 z 0 land 248);
  Bytes_util.set_u8 z 31 ((Bytes_util.get_u8 z 31 land 127) lor 64);
  let x = unpack point in
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
    mul a c _121665;
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

let base_point =
  let b = Bytes.make 32 '\000' in
  Bytes.set b 0 '\x09';
  b

let scalarmult_base scalar = scalarmult ~scalar ~point:base_point
