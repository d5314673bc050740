(* See the interface.  The conversation-only digest and its pin predate
   the transport subsystem (they pinned the 51-bit field rewrite); the
   dialing-inclusive digest extends the same hash so one constant covers
   both round types.  Everything here is a pure function of the seeds:
   any backend — in-process chain, loopback TCP daemons — that derives
   its servers from [seed] must reproduce these digests bit for bit. *)

open Vuvuzela_crypto
open Vuvuzela_dp
open Vuvuzela

type backend = {
  pks : bytes list;
  conversation_round : round:int -> bytes array -> bytes array;
  dialing_round : round:int -> m:int -> bytes array -> bytes array;
}

let seed = "transcript-pin"
let n_servers = 3
let noise = Laplace.params ~mu:3. ~b:1.
let dial_noise = Laplace.params ~mu:1. ~b:1.

let pinned_conv_digest =
  "f0a4328962790e997f48ca4e9b15e3f27665e12abacf58dfe90af0de7915b02d"

let pinned_full_digest =
  "29314874846a3d68a8bd449a79cc736a758e2ef32eeb722911ecb7b741700eab"

type row = { jobs : int; part : int option; shards : int }

let rows =
  List.concat_map
    (fun jobs ->
      List.concat_map
        (fun part -> List.map (fun shards -> { jobs; part; shards }) [ 1; 4 ])
        [ None; Some 1; Some 4; Some 16 ])
    [ 1; 4 ]

let row_label { jobs; part; shards } =
  Printf.sprintf "jobs=%d part=%s shards=%d" jobs
    (match part with None -> "batch" | Some c -> string_of_int c)
    shards

(* Slot-ordered chunks of [part] onions (the whole batch as one chunk
   without [part]), fed the way an entry collector's sink would. *)
let produce ?part requests feed =
  match part with
  | None -> feed requests
  | Some chunk ->
      let n = Array.length requests in
      let off = ref 0 in
      while !off < n do
        let len = min chunk (n - !off) in
        feed (Array.sub requests !off len);
        off := !off + len
      done

let streamed ~pks ?part ~conv ~dial () =
  let or_fail = function
    | Ok replies -> replies
    | Error st -> failwith (Format.asprintf "%a" Rpc.pp_status st)
  in
  {
    pks;
    conversation_round =
      (fun ~round requests ->
        or_fail (conv ~round ~produce:(produce ?part requests)));
    dialing_round =
      (fun ~round ~m requests ->
        or_fail (dial ~round ~m ~produce:(produce ?part requests)));
  }

let in_process ?telemetry ?(jobs = 1) ?part ?(deaddrop_shards = 1) () =
  let chain =
    Chain.of_config
      Config.(
        default |> with_seed seed |> with_n_servers n_servers
        |> with_noise noise |> with_dial_noise dial_noise
        |> with_noise_mode Noise.Deterministic |> with_jobs jobs
        |> with_deaddrop_shards deaddrop_shards
        |> (match telemetry with
           | None -> Fun.id
           | Some tel -> with_telemetry tel)
        |>
        match part with
        | None -> Fun.id
        | Some chunk -> with_pipeline ~chunk true)
  in
  ( streamed ~pks:(Chain.public_keys chain) ?part
      ~conv:(Chain.conversation_round_streamed chain)
      ~dial:(Chain.dialing_round_streamed chain)
      (),
    fun () -> Chain.shutdown chain )

(* 4 seeded clients in two conversing pairs; a[0] and c[2] have queued
   messages, the others send cover drops. *)
let make_clients pks =
  let clients =
    List.init 4 (fun i ->
        let cseed = Printf.sprintf "transcript-c%d" i in
        Client.create ~seed:cseed
          ~identity:(Types.identity_of_seed (Bytes.of_string cseed))
          ~server_pks:pks ())
  in
  (match clients with
  | a :: b :: c :: d :: _ ->
      Client.start_conversation a ~peer_pk:(Client.public_key b);
      Client.start_conversation b ~peer_pk:(Client.public_key a);
      Client.start_conversation c ~peer_pk:(Client.public_key d);
      Client.start_conversation d ~peer_pk:(Client.public_key c);
      Client.send a "hello from the pinned transcript";
      Client.send c "second pair payload"
  | _ -> assert false);
  clients

(* One run of the schedule feeds two hashes: the conversation digest
   (public keys, then rounds 1..3) and the full digest, which continues
   the same byte sequence with dialing round 1 (m = 1). *)
let run ~dialing backend =
  let clients = make_clients backend.pks in
  let hc = Sha256.init () and hf = Sha256.init () in
  let feed b =
    Sha256.feed hc b;
    Sha256.feed hf b
  in
  List.iter feed backend.pks;
  for round = 1 to 3 do
    let requests =
      Array.of_list
        (List.map (fun c -> Client.conversation_request c ~round) clients)
    in
    Array.iter feed requests;
    let replies = backend.conversation_round ~round requests in
    Array.iter feed replies;
    List.iteri
      (fun i c -> ignore (Client.handle_conversation_reply c ~round replies.(i)))
      clients
  done;
  if dialing then begin
    let m = 1 in
    let requests =
      Array.of_list
        (List.map (fun c -> Client.dialing_request c ~dial_round:1 ~m) clients)
    in
    Array.iter (Sha256.feed hf) requests;
    let acks = backend.dialing_round ~round:1 ~m requests in
    Array.iter (Sha256.feed hf) acks
  end;
  (Bytes_util.to_hex (Sha256.get hc), Bytes_util.to_hex (Sha256.get hf))

let conv_digest backend = fst (run ~dialing:false backend)
let full_digest backend = snd (run ~dialing:true backend)
let digests backend = run ~dialing:true backend
