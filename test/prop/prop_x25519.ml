(* X25519: full-ladder differential agreement against the seed
   implementation, the fixed-base comb and the per-key table comb
   against both ladders (down to whole onions), plus Wycheproof-style
   edge-case vectors and the RFC 7748 iterated test. *)

open Vuvuzela_crypto
open Vuvuzela_oracles
module Onion = Vuvuzela_mixnet.Onion

let hex = Bytes_util.to_hex
let of_hex = Bytes_util.of_hex

(* The seven low-order points of Curve25519 (libsodium's blacklist):
   u = 0, u = 1, the two order-8 points, and the non-canonical encodings
   p - 1, p, p + 1.  A clamped scalar is ≡ 0 (mod 8), so the ladder maps
   every one of them to the neutral element, encoded as all zeros. *)
let low_order_points =
  [
    "0000000000000000000000000000000000000000000000000000000000000000";
    "0100000000000000000000000000000000000000000000000000000000000000";
    "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800";
    "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157";
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
  ]

(* Whether u is on the curve rather than its twist, by Euler's
   criterion on v = u^3 + A u^2 + u = u (u (u + A) + 1): v is a square
   (or 0) exactly when v^((p-1)/2) = v^(4 (p-5)/8 + 2) is 1 (or 0). *)
let on_curve u =
  let open Fe25519 in
  let u = unpack u and v = create () and t = create () in
  add v u (of_limbs [| 486662; 0; 0; 0; 0 |]);
  mul v v u;
  add v v (one ());
  mul v v u;
  pow2523 t v;
  square t t;
  square t t;
  mul t t v;
  mul t t v;
  equal t (one ()) || equal v (zero ())
(* u = -1 (p - 1, the top bit ignored) has no Edwards image. *)
let minus_one u =
  let m = Bytes.copy u in
  Bytes_util.set_u8 m 31 (Bytes_util.get_u8 m 31 land 0x7f);
  Bytes.equal m (of_hex (List.nth low_order_points 4))

(* The table comb where [point_table] gives one, the ladder otherwise:
   what Onion.wrap_with computes.  A table must exist exactly for the
   on-curve u other than -1, and must agree with both ladders. *)
let table_agrees u scalar =
  let ladder = Curve25519.scalarmult ~scalar ~point:u in
  Prop.check_hex
    ~what:(Printf.sprintf "ladder(%s, %s) vs ref" (hex scalar) (hex u))
    (hex (Curve25519_ref.scalarmult ~scalar ~point:u))
    (hex ladder);
  match Curve25519.point_table u with
  | Some t ->
      Prop.require
        (on_curve u && not (minus_one u))
        "table built for u=%s, on the twist or -1" (hex u);
      Prop.check_hex
        ~what:(Printf.sprintf "table(%s, %s) vs ladder" (hex scalar) (hex u))
        (hex ladder)
        (hex (Curve25519.scalarmult_table t scalar))
  | None ->
      Prop.require
        ((not (on_curve u)) || minus_one u)
        "no table for on-curve u=%s" (hex u)

(* Onion wrap with the ladder for every layer's DH and the ladder on
   u = 9 for every ephemeral key: the reference Onion.wrap_with must
   equal byte for byte. *)
let ladder_wrap ~eph_sks ~server_pks ~round payload =
  let nonce = Aead.nonce_of ~domain:0x5571 ~counter:round in
  let secrets = Array.make (List.length server_pks) Bytes.empty in
  let rec go i = function
    | [] -> payload
    | spk :: rest ->
        let inner = go (i + 1) rest in
        let esk = eph_sks.(i) in
        let epk = Curve25519.scalarmult ~scalar:esk ~point:Curve25519.base_point in
        secrets.(i) <- Box.precompute ~secret:esk ~public:spk;
        Bytes.cat epk (Aead.seal ~key:secrets.(i) ~nonce inner)
  in
  let onion = go 0 server_pks in
  (onion, secrets)

let wrap_agrees (eph_sks, server_pks, payload) =
  let w = Onion.wrap_with ~eph_sks ~server_pks ~round:5 payload in
  let onion, secrets = ladder_wrap ~eph_sks ~server_pks ~round:5 payload in
  Prop.check_hex ~what:"wrap_with onion vs ladder wrap" (hex onion)
    (hex w.onion);
  Array.iteri
    (fun i s ->
      Prop.check_hex ~what:(Printf.sprintf "layer %d secret" i) (hex s)
        (hex w.secrets.(i)))
    secrets

(* Random u until [keep] holds (a seeded, bounded search). *)
let find_u rng keep =
  let rec go n =
    if n = 0 then failwith "find_u: none found";
    let u = Drbg.bytes ~rng 32 in
    if keep u then u else go (n - 1)
  in
  go 64

let run () =
  Prop.suite "x25519 (51-bit ladder) vs curve25519_ref (seed ladder)";
  (* ≥200 full ladder agreements over arbitrary scalar/point bytes. *)
  Prop.check ~name:"x25519 ladder agreement" ~count:200
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 32))
    (fun (scalar, point) ->
      Prop.check_hex
        ~what:
          (Printf.sprintf "scalarmult(%s, %s)" (hex scalar) (hex point))
        (hex (Curve25519_ref.scalarmult ~scalar ~point))
        (hex (Curve25519.scalarmult ~scalar ~point)));
  (* The fixed-base (keygen) path — Edwards25519's comb mapped to
     Montgomery u — must agree with both the seed ladder and our own
     variable-base ladder on the base point. *)
  let fixed_base_agrees scalar =
    let fixed = Curve25519.scalarmult_base scalar in
    Prop.check_hex
      ~what:(Printf.sprintf "scalarmult_base(%s) vs ref" (hex scalar))
      (hex (Curve25519_ref.scalarmult_base scalar))
      (hex fixed);
    Prop.check_hex
      ~what:(Printf.sprintf "scalarmult_base(%s) vs general" (hex scalar))
      (hex (Curve25519.scalarmult ~scalar ~point:Curve25519.base_point))
      (hex fixed)
  in
  Prop.check ~name:"x25519 fixed-base = ref and general" ~count:1000
    (Prop.gen_bytes 32) fixed_base_agrees;
  (* Named scalars at the comb's digit-recoding edges (after clamping):
     all-zero (just bit 254), all-0xff (every digit carries, the top
     digit reaches 8), 0x77.. (digits 7, no carry), 0x88.. (digit -8
     and a carry through every digit), and bit 254 alone. *)
  Prop.vector ~name:"x25519 fixed-base edge scalars" (fun () ->
      let bit254 = Bytes.make 32 '\000' in
      Bytes_util.set_u8 bit254 31 0x40;
      List.iter fixed_base_agrees
        [
          Bytes.make 32 '\000';
          Bytes.make 32 '\xff';
          Bytes.make 32 '\x77';
          Bytes.make 32 '\x88';
          bit254;
        ]);
  (* The per-key table comb (every wrapped layer's DH against a chain
     server key) against both ladders: honest keys, random u (on the
     curve through the table, on the twist without one), and edge u. *)
  Prop.check ~name:"x25519 table = ladder and ref (keypairs)" ~count:1000
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 32))
    (fun (sk, scalar) ->
      let pk = Curve25519.scalarmult_base sk in
      Prop.require (Curve25519.point_table pk <> None) "no table for %s"
        (hex pk);
      table_agrees pk scalar);
  Prop.check ~name:"x25519 table on random u (curve and twist)" ~count:300
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 32))
    (fun (u, scalar) -> table_agrees u scalar);
  Prop.check ~name:"x25519 table edge u" ~count:10 (Prop.gen_bytes 32)
    (fun scalar ->
      let u_of n =
        let u = Bytes.make 32 '\000' in
        Bytes_util.set_u8 u 0 n;
        u
      in
      (* p + 9 and p + 2: non-canonical encodings of on-curve 9 and of
         2 (whichever side it lies on); 9 with the top bit set. *)
      let p_plus n =
        let u = of_hex (List.nth low_order_points 5) in
        Bytes_util.set_u8 u 0 (0xed + n);
        u
      in
      let top9 = u_of 9 in
      Bytes_util.set_u8 top9 31 0x80;
      Prop.require
        (Curve25519.point_table (of_hex (List.nth low_order_points 4)) = None)
        "u = -1 has a table";
      List.iter
        (fun u -> table_agrees u scalar)
        ([ u_of 0; u_of 1; u_of 2; u_of 9; p_plus 2; p_plus 9; top9 ]
        @ List.map of_hex low_order_points));
  (* Every entry (j+1)·256^i·P of a table for a point P other than the
     base: a scalar with the single digit j+1 at byte i returns it. *)
  Prop.vector ~name:"edwards table entries (non-base point)" (fun () ->
      let rng = Drbg.of_string "table-entries" in
      let p =
        Option.get
          (Edwards25519.decode_neg
             (find_u rng (fun y -> Edwards25519.decode_neg y <> None)))
      in
      let tab = Edwards25519.table_of_point p in
      for i = 0 to 31 do
        for j = 0 to 7 do
          let s = Bytes.make 32 '\000' in
          Bytes_util.set_u8 s i (j + 1);
          Prop.check_hex
            ~what:(Printf.sprintf "entry (%d, %d)" i j)
            (hex (Edwards25519.encode (Edwards25519.scalarmult p s)))
            (hex (Edwards25519.encode (Edwards25519.scalarmult_table tab s)))
        done
      done);
  (* Whole onions: fresh server keys each case (so tables are built and
     evicted from the cache as it goes), chains of 1-4 servers. *)
  Prop.check ~name:"onion wrap_with = ladder wrap" ~count:200
    (fun rng ->
      let n = 1 + Drbg.uniform ~rng 4 in
      let server_pks = List.init n (fun _ -> snd (Drbg.keypair ~rng ())) in
      let eph_sks = Onion.draw_eph_sks ~rng ~chain_len:n () in
      (eph_sks, server_pks, Drbg.bytes ~rng (Drbg.uniform ~rng 100)))
    wrap_agrees;
  (* A chain holding a twist key and u = -1, neither with a table: their
     layers fall back to the ladder. *)
  Prop.vector ~name:"onion wrap_with = ladder wrap (twist keys)" (fun () ->
      let rng = Drbg.of_string "twist-chain" in
      let twist = find_u rng (fun u -> not (on_curve u)) in
      Prop.require (Curve25519.point_table twist = None) "twist has a table";
      let server_pks =
        [ snd (Drbg.keypair ~rng ()); twist;
          of_hex (List.nth low_order_points 4) ]
      in
      wrap_agrees
        (Onion.draw_eph_sks ~rng ~chain_len:3 (), server_pks,
         Bytes.of_string "payload"));
  (* Wycheproof-style edges. *)
  Prop.check ~name:"low-order points map to zero" ~count:25
    (Prop.gen_bytes 32) (fun scalar ->
      List.iter
        (fun p_hex ->
          let point = of_hex p_hex in
          let out = Curve25519.scalarmult ~scalar ~point in
          Prop.require
            (Bytes.equal out (Bytes.make 32 '\000'))
            "low-order point %s did not map to zero (got %s)" p_hex
            (hex out);
          Prop.check_hex
            ~what:(Printf.sprintf "ref agrees on low-order %s" p_hex)
            (hex (Curve25519_ref.scalarmult ~scalar ~point))
            (hex out))
        low_order_points);
  Prop.check ~name:"u-coordinate high bit is masked" ~count:100
    Prop.(gen_pair (gen_bytes 32) (gen_bytes 32))
    (fun (scalar, point) ->
      let masked = Bytes.copy point in
      Bytes_util.set_u8 masked 31 (Bytes_util.get_u8 masked 31 land 0x7f);
      let set = Bytes.copy point in
      Bytes_util.set_u8 set 31 (Bytes_util.get_u8 set 31 lor 0x80);
      Prop.check_hex
        ~what:(Printf.sprintf "high bit ignored on %s" (hex point))
        (hex (Curve25519.scalarmult ~scalar ~point:masked))
        (hex (Curve25519.scalarmult ~scalar ~point:set)));
  (* Non-canonical encodings: u and u + p encode the same field element
     (for u < 19, u + p still fits in 255 bits). *)
  Prop.check ~name:"non-canonical u (u vs u + p)" ~count:100
    (Prop.gen_bytes 33) (fun b ->
      let scalar = Bytes.sub b 0 32 in
      let u = Bytes_util.get_u8 b 32 mod 19 in
      let canonical = Bytes.make 32 '\000' in
      Bytes_util.set_u8 canonical 0 u;
      (* u + p = u - 19 + 2^255 *)
      let shifted = Bytes.make 32 '\xff' in
      Bytes_util.set_u8 shifted 0 (0xed + u);
      Bytes_util.set_u8 shifted 31 0x7f;
      Prop.check_hex
        ~what:(Printf.sprintf "u=%d vs u+p" u)
        (hex (Curve25519.scalarmult ~scalar ~point:canonical))
        (hex (Curve25519.scalarmult ~scalar ~point:shifted)));
  (* RFC 7748 §5.2 iterated vector, 1000 iterations (on the fast
     implementation; the alcotest suite keeps its own copy). *)
  Prop.vector ~name:"rfc7748 iterated ladder (1k)" (fun () ->
      let k =
        ref
          (of_hex
             "0900000000000000000000000000000000000000000000000000000000000000")
      in
      let u = ref !k in
      for i = 1 to 1000 do
        let r = Curve25519.scalarmult ~scalar:!k ~point:!u in
        u := !k;
        k := r;
        if i = 1 then
          Prop.check_hex ~what:"after 1 iteration"
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
            (hex !k)
      done;
      Prop.check_hex ~what:"after 1000 iterations"
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        (hex !k))
