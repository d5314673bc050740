(* Reference ChaCha20 (RFC 8439): the seed implementation, retained
   verbatim as the differential oracle for the optimized {!Chacha20}.
   Do not optimize this module — its value is that it stays simple and
   obviously correct so test/prop/prop_chacha.ml can compare the fast
   path against it.  32-bit words are native ints masked to 32 bits. *)

open Vuvuzela_crypto

let mask32 = 0xffffffff
let key_len = 32
let nonce_len = 12

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* The "expand 32-byte k" sigma constants. *)
let c0 = 0x61707865
let c1 = 0x3320646e
let c2 = 0x79622d32
let c3 = 0x6b206574

let quarter_round st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 7

let init_state ~key ~nonce ~counter =
  if Bytes.length key <> key_len then invalid_arg "Chacha20: bad key length";
  if Bytes.length nonce <> nonce_len then
    invalid_arg "Chacha20: bad nonce length";
  let st = Array.make 16 0 in
  st.(0) <- c0;
  st.(1) <- c1;
  st.(2) <- c2;
  st.(3) <- c3;
  for i = 0 to 7 do
    st.(4 + i) <- Bytes_util.le32 key (4 * i)
  done;
  st.(12) <- counter land mask32;
  for i = 0 to 2 do
    st.(13 + i) <- Bytes_util.le32 nonce (4 * i)
  done;
  st

(* One 64-byte keystream block into [out] at offset [off]. *)
let block_into st out off =
  let w = Array.copy st in
  for _ = 1 to 10 do
    quarter_round w 0 4 8 12;
    quarter_round w 1 5 9 13;
    quarter_round w 2 6 10 14;
    quarter_round w 3 7 11 15;
    quarter_round w 0 5 10 15;
    quarter_round w 1 6 11 12;
    quarter_round w 2 7 8 13;
    quarter_round w 3 4 9 14
  done;
  for i = 0 to 15 do
    Bytes_util.store_le32 out (off + (4 * i)) ((w.(i) + st.(i)) land mask32)
  done

let block ~key ~nonce ~counter =
  let st = init_state ~key ~nonce ~counter in
  let out = Bytes.create 64 in
  block_into st out 0;
  out

let encrypt_into ~key ~nonce ~counter ~src ~dst =
  let len = Bytes.length src in
  if Bytes.length dst < len then invalid_arg "Chacha20: dst too short";
  let st = init_state ~key ~nonce ~counter in
  let ks = Bytes.create 64 in
  let pos = ref 0 in
  while !pos < len do
    block_into st ks 0;
    st.(12) <- (st.(12) + 1) land mask32;
    let n = min 64 (len - !pos) in
    for i = 0 to n - 1 do
      Bytes_util.set_u8 dst (!pos + i)
        (Bytes_util.get_u8 src (!pos + i) lxor Bytes_util.get_u8 ks i)
    done;
    pos := !pos + n
  done

let encrypt ?(counter = 1) ~key ~nonce src =
  let dst = Bytes.create (Bytes.length src) in
  encrypt_into ~key ~nonce ~counter ~src ~dst;
  dst

let decrypt = encrypt

(* Raw keystream, used by the DRBG. *)
let keystream ~key ~nonce ~counter len =
  let zero = Bytes.make len '\000' in
  let dst = Bytes.create len in
  encrypt_into ~key ~nonce ~counter ~src:zero ~dst;
  dst
