(* The relay state machine, driven directly: one {!Relay} over one
   server of a seeded chain, fed scripted frames, its outputs checked
   frame by frame.  These are the hop rules both deployments share —
   part sequencing, stale-round supersede, faults at part 0, absolute
   tamper slots, aborts, fetch routing, unknown results — without a
   socket or a second relay in sight. *)

open Vuvuzela_dp
open Vuvuzela
module Fault = Vuvuzela_faults.Fault

let with_chain f =
  let chain =
    Chain.of_config
      Config.(
        default |> with_seed "relay-tests"
        |> with_noise (Laplace.params ~mu:2. ~b:1.)
        |> with_noise_mode Noise.Deterministic)
  in
  Fun.protect ~finally:(fun () -> Chain.shutdown chain) (fun () -> f chain)

(* A relay over the chain's middle server (or [index]). *)
let relay ?faults ?tap ?(index = 1) chain =
  Relay.create ?faults ?tap ~index (Chain.server chain index)

(* Random onions of the size the middle server of 3 expects. *)
let onions ~seed n =
  let rng = Vuvuzela_crypto.Drbg.of_string seed in
  let len =
    Relay.request_len ~chain_len:2 ~dial_kind:Dialing.Plain ~dialing:false
  in
  Array.init n (fun _ -> Vuvuzela_crypto.Drbg.generate rng len)

let send r msg = Relay.upstream r ~raw:(Rpc.encode msg) msg

let part ~round ~seq ~last batch = Rpc.part ~round ~seq ~last batch

let statuses (out : Relay.output) =
  List.filter_map (function Rpc.Status st -> Some st | _ -> None) out.up

let is_quiet (out : Relay.output) =
  out.up = [] && out.down = [] && out.lost = None && not out.finished

(* 1. A skipped sequence number is a typed status and drops the stream. *)
let test_sequence_gap () =
  with_chain @@ fun chain ->
  let r = relay chain in
  let b = onions ~seed:"gap" 6 in
  Alcotest.(check bool) "part 0 accepted quietly" true
    (is_quiet (send r (part ~round:3 ~seq:0 ~last:false (Array.sub b 0 2))));
  let out = send r (part ~round:3 ~seq:2 ~last:false (Array.sub b 2 2)) in
  (match statuses out with
  | [ st ] ->
      Alcotest.(check string) "stage" "conv-batch" st.Rpc.stage;
      Alcotest.(check string)
        "detail" "part 2 arrived, expected 1" st.Rpc.detail;
      Alcotest.(check int) "round" 3 st.Rpc.round;
      Alcotest.(check int) "server" 1 st.Rpc.server
  | _ -> Alcotest.fail "expected exactly one status");
  Alcotest.(check bool) "gap finishes the hop" true out.finished;
  Alcotest.(check bool) "the stream is gone: part 1 is ignored" true
    (is_quiet (send r (part ~round:3 ~seq:1 ~last:true (Array.sub b 2 2))))

(* 2. Part 0 of round r+1 supersedes round r; r's later parts are
   ignored and r+1 completes. *)
let test_supersede () =
  with_chain @@ fun chain ->
  let r = relay chain in
  let b = onions ~seed:"supersede" 4 in
  ignore (send r (part ~round:5 ~seq:0 ~last:false (Array.sub b 0 2)));
  ignore (send r (part ~round:6 ~seq:0 ~last:false (Array.sub b 0 2)));
  Alcotest.(check bool) "round 5's tail is ignored" true
    (is_quiet (send r (part ~round:5 ~seq:1 ~last:true (Array.sub b 2 2))));
  let out = send r (part ~round:6 ~seq:1 ~last:true (Array.sub b 2 2)) in
  Alcotest.(check bool) "round 6 forwards" true
    (match out.down with
    | Rpc.Conv_batch_part { round = 6; seq = 0; last = true; _ } :: [] -> true
    | _ -> false);
  Alcotest.(check (option (pair int bool)))
    "round 6 in flight" (Some (6, false)) (Relay.inflight r)

(* 3. A crash at part 0 loses the batch: every later part is swallowed. *)
let test_crash_poisons () =
  with_chain @@ fun chain ->
  let faults =
    Fault.injector [ { Fault.round = 7; server = 1; kind = Fault.Crash } ]
  in
  let r = relay ~faults chain in
  let b = onions ~seed:"crash" 6 in
  let out = send r (part ~round:7 ~seq:0 ~last:false (Array.sub b 0 2)) in
  (match out.lost with
  | Some st ->
      Alcotest.(check string) "loss detail" "server crashed (injected fault)"
        st.Rpc.detail;
      Alcotest.(check string) "loss stage" "conv-batch" st.Rpc.stage
  | None -> Alcotest.fail "crash did not lose the batch");
  Alcotest.(check bool) "crash resets the upstream link" true out.reset;
  Alcotest.(check bool) "nothing sent" true (out.up = [] && out.down = []);
  Alcotest.(check bool) "part 1 swallowed" true
    (is_quiet (send r (part ~round:7 ~seq:1 ~last:false (Array.sub b 2 2))));
  Alcotest.(check bool) "last part swallowed" true
    (is_quiet (send r (part ~round:7 ~seq:2 ~last:true (Array.sub b 4 2))));
  Alcotest.(check (option (pair int bool))) "nothing in flight" None
    (Relay.inflight r)

(* 4. A tamper slot in part 2 flips exactly that onion. *)
let test_tamper_absolute_slot () =
  with_chain @@ fun chain ->
  let faults =
    Fault.injector
      [ { Fault.round = 2; server = 1; kind = Fault.Tamper_slot 5 } ]
  in
  let seen = ref [] in
  let tap ~round:_ ~server:_ batch = seen := batch :: !seen in
  let r = relay ~faults ~tap chain in
  let b = onions ~seed:"tamper" 6 in
  for seq = 0 to 2 do
    ignore
      (send r (part ~round:2 ~seq ~last:(seq = 2) (Array.sub b (2 * seq) 2)))
  done;
  let tapped = Array.concat (List.rev !seen) in
  Alcotest.(check int) "three parts tapped" 3 (List.length !seen);
  Array.iteri
    (fun i onion ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d %s" i (if i = 5 then "flipped" else "intact"))
        (i <> 5) (Bytes.equal onion b.(i)))
    tapped;
  Alcotest.(check char) "byte 0 of slot 5 xored"
    (Char.chr (Char.code (Bytes.get b.(5) 0) lxor 0xff))
    (Bytes.get tapped.(5) 0)

(* 5. An abort mid-stream frees the stream and is forwarded; after a
   forward it also drops the server's round state, so late results for
   that round are refused. *)
let test_abort () =
  with_chain @@ fun chain ->
  let r = relay chain in
  let b = onions ~seed:"abort" 4 in
  ignore (send r (part ~round:8 ~seq:0 ~last:false (Array.sub b 0 2)));
  let abort = Rpc.Abort { round = 8; dialing = false } in
  let out = send r abort in
  Alcotest.(check bool) "abort forwarded" true
    (match out.down with
    | [ Rpc.Abort { round = 8; dialing = false } ] -> true
    | _ -> false);
  Alcotest.(check bool) "abort finishes the hop" true out.finished;
  Alcotest.(check bool) "the stream is freed" true
    (is_quiet (send r (part ~round:8 ~seq:1 ~last:true (Array.sub b 2 2))));
  (* A completed forward, then its abort. *)
  let out = send r (part ~round:9 ~seq:0 ~last:true b) in
  let forwarded =
    match out.down with
    | [ Rpc.Conv_batch_part { onions; _ } ] -> Array.length onions
    | _ -> Alcotest.fail "round 9 did not forward"
  in
  ignore (send r (Rpc.Abort { round = 9; dialing = false }));
  Alcotest.(check (option (pair int bool))) "in-flight marker cleared" None
    (Relay.inflight r);
  let replies = Array.make forwarded (Bytes.make 1 'r') in
  let late = Relay.downstream r (Rpc.Conv_results { round = 9; replies }) in
  match statuses late with
  | [ st ] ->
      Alcotest.(check string) "round state dropped" "conv-results" st.Rpc.stage
  | _ -> Alcotest.fail "results for an aborted round were accepted"

(* 6. A middle relay forwards a fetch; the last one answers it. *)
let test_fetch_routing () =
  with_chain @@ fun chain ->
  let fetch = Rpc.Fetch_drop { dial_round = 1; index = 0 } in
  let out = send (relay chain) fetch in
  Alcotest.(check bool) "middle relay forwards" true
    (out.up = [] && out.down = [ fetch ]);
  let out = send (relay ~index:2 chain) fetch in
  Alcotest.(check bool) "last relay answers" true
    (out.down = []
    && match out.up with
       | [ Rpc.Drop_contents { dial_round = 1; index = 0; _ } ] -> true
       | _ -> false)

(* 7. Results for a round this server never forwarded become a status. *)
let test_unknown_results () =
  with_chain @@ fun chain ->
  let r = relay chain in
  let out =
    try Relay.downstream r (Rpc.Conv_results { round = 99; replies = [||] })
    with e -> Alcotest.failf "relay raised %s" (Printexc.to_string e)
  in
  match statuses out with
  | [ st ] ->
      Alcotest.(check int) "round" 99 st.Rpc.round;
      Alcotest.(check string) "stage" "conv-results" st.Rpc.stage;
      Alcotest.(check bool) "hop finished" true out.finished
  | _ -> Alcotest.fail "expected one status"

let suite =
  let tc = Alcotest.test_case in
  ( "relay",
    [
      tc "sequence gap is a typed status" `Quick test_sequence_gap;
      tc "next round supersedes a stale stream" `Quick test_supersede;
      tc "crash at part 0 swallows the round" `Quick test_crash_poisons;
      tc "tamper hits its absolute slot" `Quick test_tamper_absolute_slot;
      tc "abort frees, forwards, drops state" `Quick test_abort;
      tc "fetch forwarded, answered at the last" `Quick test_fetch_routing;
      tc "unknown results become a status" `Quick test_unknown_results;
    ] )
