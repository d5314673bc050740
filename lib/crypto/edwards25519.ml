(* The twisted Edwards form of Curve25519, -x^2 + y^2 = 1 + d x^2 y^2,
   over the shared Fe25519 field arithmetic: the group law shared by
   Ed25519 signatures and the fixed-point half of X25519 (ephemeral
   keys, and every wrapped layer's DH against a chain server key).  It
   sits below both because Curve25519 -> Ed25519 would close the cycle
   Curve25519 -> Ed25519 -> Drbg -> Curve25519.

   Points are held in extended coordinates (X, Y, Z, T) with
   x = X/Z, y = Y/Z, xy = T/Z.

   Fixed-point multiplication follows ref10/libsodium's
   ge_scalarmult_base, for any point P known in advance: the scalar is
   recoded into 64 signed radix-16 digits e_k in [-8, 8], so that

     a·P = sum_k e_k 16^k P
         = 16 · (sum_i e_(2i+1) 256^i P) + sum_i e_(2i) 256^i P,

   and every term |e| 256^i P is read from a table of
   (j+1)·256^i·P, i < 32, j < 8: 64 mixed additions and 4 doublings,
   against the ladder's 255 steps.  The table holds each point in
   affine (y+x, y-x, 2dxy) form, which makes the mixed addition 7
   multiplications; the 256 affine conversions share one inversion.
   [table_of_point] builds a table in about 1.6 ms; the base point's is
   built when the module is initialised, before any domain can run.  A
   table is only read once built, so concurrent callers share it safely,
   and no table data is stated as constants.

   Constant time: the digits come from the scalar without branches; a
   lookup reads all eight entries of the (public) row i and keeps the
   wanted one with masks, and a negative digit is applied with a
   conditional swap and a conditional move.  No branch or memory index
   depends on the scalar.  The point P is public (a base or server
   key), so building its table may branch on it. *)

type point = { x : Fe25519.t; y : Fe25519.t; z : Fe25519.t; t : Fe25519.t }

(* Curve constants, given as their canonical little-endian encodings so
   they are independent of Fe25519's limb representation: d, 2d, the base
   point (X, Y), and I = sqrt(-1).  These bytes are exactly the packed
   form of TweetNaCl's limb tables (the seed implementation's constants);
   the property harness re-checks d and I algebraically. *)
let fe_of_hex h = Fe25519.unpack (Bytes_util.of_hex h)

let const_d =
  fe_of_hex "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352"

let const_d2 =
  fe_of_hex "59f1b226949bd6eb56b183829a14e00030d1f3eef2808e19e7fcdf56dcd90624"

let const_x =
  fe_of_hex "1ad5258f602d56c9b2a7259560c72c695cdcd6fd31e2a4c0fe536ecdd3366921"

let const_y =
  fe_of_hex "5866666666666666666666666666666666666666666666666666666666666666"

let const_i =
  fe_of_hex "b0a00e4a271beec478e42fad0618432fa7d7fb3d99004d2b0bdfc14f8024832b"

let identity () =
  { x = Fe25519.zero (); y = Fe25519.one (); z = Fe25519.one ();
    t = Fe25519.zero () }

let base () =
  let t = Fe25519.create () in
  Fe25519.mul t const_x const_y;
  { x = Fe25519.copy const_x; y = Fe25519.copy const_y; z = Fe25519.one (); t }

let copy p =
  { x = Fe25519.copy p.x; y = Fe25519.copy p.y; z = Fe25519.copy p.z;
    t = Fe25519.copy p.t }

(* Extended-coordinate point addition: p <- p + q.  The formulas are
   complete, so this also doubles (q == p). *)
let add (p : point) (q : point) =
  let open Fe25519 in
  let a = create ()
  and b = create ()
  and c = create ()
  and d = create ()
  and t = create ()
  and e = create ()
  and f = create ()
  and g = create ()
  and h = create () in
  sub a p.y p.x;
  sub t q.y q.x;
  mul a a t;
  add b p.x p.y;
  add t q.x q.y;
  mul b b t;
  mul c p.t q.t;
  mul c c const_d2;
  mul d p.z q.z;
  add d d d;
  sub e b a;
  sub f d c;
  add g d c;
  add h b a;
  mul p.x e f;
  mul p.y h g;
  mul p.z g f;
  mul p.t e h

let cswap (p : point) (q : point) b =
  Fe25519.cswap p.x q.x b;
  Fe25519.cswap p.y q.y b;
  Fe25519.cswap p.z q.z b;
  Fe25519.cswap p.t q.t b

(* Compress: 32-byte y with the sign of x in the top bit. *)
let encode (p : point) =
  let open Fe25519 in
  let zi = create () and tx = create () and ty = create () in
  invert zi p.z;
  mul tx p.x zi;
  mul ty p.y zi;
  let r = pack ty in
  Bytes_util.set_u8 r 31 (Bytes_util.get_u8 r 31 lxor (parity tx lsl 7));
  r

(* Constant-time double-and-add ladder over the 256-bit scalar encoding
   (TweetNaCl's cswap ladder): any point, any 32-byte scalar. *)
let scalarmult (q : point) (s : bytes) : point =
  let p = identity () in
  let q = copy q in
  for i = 255 downto 0 do
    let b = (Bytes_util.get_u8 s (i lsr 3) lsr (i land 7)) land 1 in
    cswap p q b;
    add q p;
    add p p;
    cswap p q b
  done;
  p

(* Decompress a public key / R value; fails on non-curve points.
   Returns the point with x NEGATED (TweetNaCl's unpackneg), which is
   what verification wants: it computes R' = sB + h·(-A). *)
let decode_neg (p : bytes) : point option =
  let open Fe25519 in
  let r = { x = create (); y = unpack p; z = one (); t = create () } in
  let num = create ()
  and den = create ()
  and t = create ()
  and chk = create ()
  and den2 = create ()
  and den4 = create ()
  and den6 = create () in
  square num r.y;
  mul den num const_d;
  sub num num r.z;
  add den r.z den;
  square den2 den;
  square den4 den2;
  mul den6 den4 den2;
  mul t den6 num;
  mul t t den;
  pow2523 t t;
  mul t t num;
  mul t t den;
  mul t t den;
  mul r.x t den;
  square chk r.x;
  mul chk chk den;
  if not (equal chk num) then mul r.x r.x const_i;
  square chk r.x;
  mul chk chk den;
  if not (equal chk num) then None
  else begin
    if parity r.x = Bytes_util.get_u8 p 31 lsr 7 then sub r.x (zero ()) r.x;
    mul r.t r.x r.y;
    Some r
  end

(* ------------------------------------------------------------------ *)
(* Fixed point                                                         *)
(* ------------------------------------------------------------------ *)

(* One table entry is 15 ints: the canonical limbs of y+x, y-x and
   2dxy, in that order; entry (i, j) = (j+1)·256^i·P sits at
   ((8 i) + j) · 15. *)
type table = int array

let entry_len = 15

(* The 256 entries are summed in extended coordinates, then normalised
   with one batched inversion (Montgomery's trick: invert the product of
   every Z once, then peel each 1/Z off with two multiplications). *)
let table_of_point (p : point) : table =
  let pts = Array.make 256 p in
  let row = copy p (* 256^i P *) in
  for i = 0 to 31 do
    let q = copy row in
    for j = 0 to 7 do
      if j > 0 then add q row;
      pts.((8 * i) + j) <- copy q
    done;
    for _ = 1 to 8 do
      add row row
    done
  done;
  let open Fe25519 in
  (* prefix.(k) = Z_0 ... Z_k *)
  let prefix = Array.init 256 (fun k -> copy pts.(k).z) in
  for k = 1 to 255 do
    mul prefix.(k) prefix.(k - 1) pts.(k).z
  done;
  let inv = create () and zi = create () and ax = create () in
  let ay = create () and v = create () in
  invert inv prefix.(255);
  let tab = Array.make (256 * entry_len) 0 in
  let store off fe = Array.blit (unpack (pack fe)) 0 tab off 5 in
  for k = 255 downto 0 do
    let q = pts.(k) in
    if k > 0 then begin
      mul zi inv prefix.(k - 1);
      mul inv inv q.z
    end
    else blit ~src:inv ~dst:zi;
    mul ax q.x zi;
    mul ay q.y zi;
    let off = k * entry_len in
    Fe25519.add v ay ax;
    store off v;
    sub v ay ax;
    store (off + 5) v;
    mul v ax ay;
    mul v v const_d2;
    store (off + 10) v
  done;
  tab

let base_table = table_of_point (base ())

let top_bit = Sys.int_size - 1
let zero_fe = Fe25519.zero ()

(* All ones when a = b, else 0, for 0 <= a, b < 16. *)
let eq_mask a b = ((a lxor b) - 1) asr top_bit

(* Limb o of the entry whose mask is set (0 when none is): OR over the
   eight entries of a row.  Top-level, so no closure is allocated per
   digit. *)
let pick (table : table) o m1 m2 m3 m4 m5 m6 m7 m8 =
  m1 land table.(o)
  lor (m2 land table.(o + entry_len))
  lor (m3 land table.(o + (2 * entry_len)))
  lor (m4 land table.(o + (3 * entry_len)))
  lor (m5 land table.(o + (4 * entry_len)))
  lor (m6 land table.(o + (5 * entry_len)))
  lor (m7 land table.(o + (6 * entry_len)))
  lor (m8 land table.(o + (7 * entry_len)))

(* p <- p + (digit b)·256^i·P for b in [-8, 8], P the point [table] was
   built from.  [ypx], [ymx], [xy2d] and [s0]..[s5] are the caller's
   scratch. *)
let add_digit table p i b ypx ymx xy2d s0 s1 s2 s3 s4 s5 =
  let open Fe25519 in
  (* Select |b|·256^i·P, or the identity (1, 1, 0) for b = 0, by
     OR-ing every entry of row i under its mask: at most one mask is
     set. *)
  let neg = (b lsr top_bit) land 1 in
  let babs = b - ((-neg land b) lsl 1) in
  let m1 = eq_mask babs 1 and m2 = eq_mask babs 2 and m3 = eq_mask babs 3 in
  let m4 = eq_mask babs 4 and m5 = eq_mask babs 5 and m6 = eq_mask babs 6 in
  let m7 = eq_mask babs 7 and m8 = eq_mask babs 8 in
  let row = 8 * i * entry_len in
  for l = 0 to 4 do
    ypx.(l) <- pick table (row + l) m1 m2 m3 m4 m5 m6 m7 m8;
    ymx.(l) <- pick table (row + 5 + l) m1 m2 m3 m4 m5 m6 m7 m8;
    xy2d.(l) <- pick table (row + 10 + l) m1 m2 m3 m4 m5 m6 m7 m8
  done;
  let is_zero = eq_mask babs 0 land 1 in
  ypx.(0) <- ypx.(0) lor is_zero;
  ymx.(0) <- ymx.(0) lor is_zero;
  (* -(x, y) = (-x, y): swap y+x with y-x and negate 2dxy. *)
  cswap ypx ymx neg;
  sub s0 zero_fe xy2d;
  cmov xy2d s0 neg;
  (* Mixed addition, extended + affine (Z2 = 1): 7 multiplications. *)
  sub s0 p.y p.x;
  mul s0 s0 ymx (* A *);
  Fe25519.add s1 p.y p.x;
  mul s1 s1 ypx (* B *);
  mul s2 p.t xy2d (* C *);
  Fe25519.add s3 p.z p.z (* D *);
  sub s4 s1 s0 (* E *);
  Fe25519.add s1 s1 s0 (* H *);
  sub s5 s3 s2 (* F *);
  Fe25519.add s3 s3 s2 (* G *);
  mul p.x s4 s5;
  mul p.y s3 s1;
  mul p.z s5 s3;
  mul p.t s4 s1

let scalarmult_table (table : table) (a : bytes) : point =
  if Bytes.length a <> 32 || Bytes_util.get_u8 a 31 > 127 then
    invalid_arg "Edwards25519.scalarmult_table: need 32 bytes, below 2^255";
  (* Signed radix-16 digits: e_k in [0, 15], then carried into [-8, 7]
     (e_63 ends in [0, 8] because a < 2^255). *)
  let e = Array.make 64 0 in
  for i = 0 to 31 do
    let v = Bytes_util.get_u8 a i in
    e.(2 * i) <- v land 15;
    e.((2 * i) + 1) <- v lsr 4
  done;
  let carry = ref 0 in
  for k = 0 to 62 do
    let v = e.(k) + !carry in
    carry := (v + 8) asr 4;
    e.(k) <- v - (!carry lsl 4)
  done;
  e.(63) <- e.(63) + !carry;
  let fe = Fe25519.create in
  let ypx = fe () and ymx = fe () and xy2d = fe () in
  let s0 = fe () and s1 = fe () and s2 = fe () in
  let s3 = fe () and s4 = fe () and s5 = fe () in
  let p = identity () in
  for i = 0 to 31 do
    add_digit table p i e.((2 * i) + 1) ypx ymx xy2d s0 s1 s2 s3 s4 s5
  done;
  for _ = 1 to 4 do
    add p p
  done;
  for i = 0 to 31 do
    add_digit table p i e.(2 * i) ypx ymx xy2d s0 s1 s2 s3 s4 s5
  done;
  p

let scalarmult_base a = scalarmult_table base_table a
