(* One chain server's hop; see the interface for the rules it owns.

   State is one stream (the round whose parts are arriving) and one
   in-flight marker (the round forwarded downstream whose results are
   still owed).  The protocol is lockstep per link, so one of each is
   enough: part 0 of another round supersedes the stream, and stale
   results are refused by [Server] as an unknown round. *)

module Fault = Vuvuzela_faults.Fault
module Telemetry = Vuvuzela_telemetry.Telemetry

type stream = {
  round : int;
  m : int option;  (** [Some m]: a dialing round with [m] drops *)
  peel : Server.stream;
  mutable seq : int;  (** next expected part *)
  mutable off : int;  (** onions received so far = absolute slot offset *)
  mutable tampers : int list;  (** [Tamper_slot] slots not yet applied *)
  mutable poisoned : bool;
      (** the batch was lost or its part 0 undecodable: swallow the
          round's remaining parts *)
}

type t = {
  server : Server.t;
  index : int;
  chunk : int option;
  faults : Fault.injector option;
  tap : (round:int -> server:int -> bytes array -> unit) option;
  tel : Telemetry.t option;
  mutable stream : stream option;
  mutable inflight : (int * bool) option;
}

type output = {
  up : Rpc.message list;
  down : Rpc.message list;
  fired : Fault.kind list;
  stall_ms : int;
  reset : bool;
  lost : Rpc.status option;
  finished : bool;
}

let quiet =
  {
    up = [];
    down = [];
    fired = [];
    stall_ms = 0;
    reset = false;
    lost = None;
    finished = false;
  }

let create ?faults ?tap ?telemetry ?chunk ~index server =
  {
    server;
    index;
    chunk = Option.map (max 1) chunk;
    faults;
    tap;
    tel = telemetry;
    stream = None;
    inflight = None;
  }

let server t = t.server
let inflight t = t.inflight
let is_last t = Server.is_last t.server
let batch_stage ~dialing = if dialing then "dial-batch" else "conv-batch"

let status t ~round ~stage detail =
  { Rpc.round; server = t.index; stage; detail }

(* [answer] ends the round's hop here; [reply] does not (fetches). *)
let reply msg = { quiet with up = [ msg ] }
let answer msg = { (reply msg) with finished = true }

let fail t ~round ~stage detail =
  t.stream <- None;
  answer (Rpc.Status (status t ~round ~stage detail))

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

(* Short tag for a fault kind — the metric label and span annotation. *)
let fault_tag = function
  | Fault.Crash -> "crash"
  | Fault.Drop_link -> "drop-link"
  | Fault.Delay_ms _ -> "delay"
  | Fault.Tamper_slot _ -> "tamper-slot"
  | Fault.Corrupt_frame _ -> "corrupt-frame"
  | Fault.Truncate_frame _ -> "truncate-frame"
  | Fault.Extend_frame _ -> "extend-frame"
  | Fault.Slow_link _ -> "slow-link"
  | Fault.Flap _ -> "flap"
  | Fault.Partition _ -> "partition"

(* Every fired fault becomes a counter sample and an annotation on the
   innermost open span; stall kinds also feed the injected-delay counter
   so the stall is visible apart from wall-clock timings. *)
let record_faults t kinds =
  if t.tel <> None then
    List.iter
      (fun k ->
        let tag = fault_tag k in
        Telemetry.add_counter t.tel
          ~labels:[ ("kind", tag) ]
          "vuvuzela_faults_injected_total";
        Telemetry.annotate t.tel
          (Printf.sprintf "fault.%s" tag)
          (Printf.sprintf "server=%d" t.index);
        match k with
        | Fault.Delay_ms ms ->
            Telemetry.add_counter t.tel ~by:(float_of_int ms)
              "vuvuzela_injected_delay_ms_total"
        | Fault.Slow_link ms | Fault.Flap ms | Fault.Partition ms ->
            Telemetry.add_counter t.tel
              ~labels:[ ("kind", tag) ]
              "vuvuzela_link_stalls_total";
            Telemetry.add_counter t.tel ~by:(float_of_int ms)
              "vuvuzela_injected_delay_ms_total"
        | _ -> ())
      kinds

(* What the faults of one site do, in plan order.  A lost batch ends
   the list: the faults after it have no batch to act on. *)
type firing = {
  stall : int;
  resets : bool;
  loss : string option;
  slots : int list;
  frame : Fault.kind list;
}

let classify kinds =
  List.fold_left
    (fun f k ->
      if f.loss <> None then f
      else
        match k with
        | Fault.Crash ->
            {
              f with
              resets = true;
              loss = Some "server crashed (injected fault)";
            }
        | Fault.Drop_link ->
            { f with loss = Some "link dropped (injected fault)" }
        | Fault.Delay_ms ms | Fault.Slow_link ms ->
            { f with stall = f.stall + ms }
        | Fault.Flap ms -> { f with stall = f.stall + ms; resets = true }
        | Fault.Partition ms ->
            {
              f with
              stall = f.stall + ms;
              resets = true;
              loss = Some "link partitioned (injected fault)";
            }
        | Fault.Tamper_slot s -> { f with slots = f.slots @ [ s ] }
        | Fault.Corrupt_frame _ | Fault.Truncate_frame _ | Fault.Extend_frame _
          ->
            { f with frame = f.frame @ [ k ] })
    { stall = 0; resets = false; loss = None; slots = []; frame = [] }
    kinds

(* ------------------------------------------------------------------ *)
(* Upstream: parts, aborts, fetches                                    *)
(* ------------------------------------------------------------------ *)

(* Peel one in-sequence part; on the last, cross the exchange barrier:
   answer (last server) or forward the shuffled batch in parts. *)
let feed t s ~last onions =
  let round = s.round and dialing = s.m <> None in
  let len = Array.length onions in
  let hits, rest =
    List.partition
      (fun slot -> slot < s.off + len || (last && s.seq = 0))
      s.tampers
  in
  let onions =
    List.fold_left
      (fun o slot -> Fault.apply_tamper o (slot - s.off))
      onions hits
  in
  s.tampers <- rest;
  Option.iter (fun tap -> tap ~round ~server:t.index onions) t.tap;
  match
    Server.stream_feed t.server s.peel onions;
    s.off <- s.off + len;
    s.seq <- s.seq + 1;
    if not last then `More
    else
      match (s.m, is_last t) with
      | None, true -> `Reply (Server.conv_finish_exchange t.server s.peel)
      | Some m, true -> `Reply (Server.dial_finish_deliver t.server s.peel ~m)
      | None, false -> `Forward (Server.conv_finish_forward t.server s.peel)
      | Some m, false ->
          `Forward (Server.dial_finish_forward t.server s.peel ~m)
  with
  | `More -> quiet
  | `Reply replies ->
      t.stream <- None;
      answer (Rpc.results ~dialing ~round replies)
  | `Forward batch ->
      t.stream <- None;
      t.inflight <- Some (round, dialing);
      let chunk = Option.value t.chunk ~default:(Array.length batch) in
      let parts = Rpc.split_parts ~chunk batch in
      let n = Array.length parts in
      {
        quiet with
        down =
          List.init n (fun seq ->
              Rpc.part ?m:s.m ~round ~seq ~last:(seq = n - 1) parts.(seq));
      }
  | exception e ->
      fail t ~round ~stage:(batch_stage ~dialing) (Printexc.to_string e)

(* Part 0 opens the round's stream and fires this site's faults. *)
let first_part t ~raw ~round ~m ~last onions =
  let dialing = m <> None in
  let stage = batch_stage ~dialing in
  let s =
    {
      round;
      m;
      peel =
        (if dialing then Server.dial_stream t.server ~round
         else Server.conv_stream t.server ~round);
      seq = 0;
      off = 0;
      tampers = [];
      poisoned = false;
    }
  in
  t.stream <- Some s;
  let kinds =
    match t.faults with
    | None -> []
    | Some inj -> Fault.fire inj ~round ~server:t.index
  in
  record_faults t kinds;
  let f = classify kinds in
  let effects out =
    { out with fired = kinds; stall_ms = f.stall; reset = f.resets }
  in
  match f.loss with
  | Some detail ->
      s.poisoned <- true;
      effects
        {
          quiet with
          lost = Some (status t ~round ~stage detail);
          finished = true;
        }
  | None -> (
      s.tampers <- f.slots;
      let received =
        if f.frame = [] then Ok (last, onions)
        else
          match Rpc.decode (List.fold_left Fault.apply_frame raw f.frame) with
          | Error e -> Error e
          | Ok
              ( Rpc.Conv_batch_part { last; onions; _ }
              | Rpc.Dial_batch_part { last; onions; _ } ) ->
              Ok (last, onions)
          | Ok _ -> Ok (last, onions)
      in
      match received with
      | Error e ->
          s.poisoned <- true;
          effects (answer (Rpc.Status (status t ~round ~stage e)))
      | Ok (last, onions) -> effects (feed t s ~last onions))

(* Part 0 of any round supersedes the stream in flight (the supervisor
   moved on; its abort may have been lost with a link). *)
let part t ~raw ~round ~m ~seq ~last onions =
  if seq = 0 then first_part t ~raw ~round ~m ~last onions
  else
    match t.stream with
    | Some s when s.round = round && (s.m = None) = (m = None) ->
        if s.poisoned then quiet
        else if s.seq = seq then feed t s ~last onions
        else
          (* Ordered link: a sequence gap is a protocol violation. *)
          fail t ~round ~stage:(batch_stage ~dialing:(m <> None))
            (Printf.sprintf "part %d arrived, expected %d" seq s.seq)
    | _ -> quiet (* the stale tail of an abandoned round *)

let upstream t ~raw msg =
  match msg with
  | Rpc.Conv_batch_part { round; seq; last; onions } ->
      part t ~raw ~round ~m:None ~seq ~last onions
  | Rpc.Dial_batch_part { round; m; seq; last; onions } ->
      part t ~raw ~round ~m:(Some m) ~seq ~last onions
  | Rpc.Abort { round; dialing } ->
      (match t.inflight with
      | Some (r, d) when r = round && d = dialing -> t.inflight <- None
      | _ -> ());
      (match t.stream with
      | Some s when s.round = round && (s.m <> None) = dialing ->
          t.stream <- None
      | _ -> ());
      if dialing then Server.abort_dial_round t.server ~round
      else Server.abort_conv_round t.server ~round;
      { quiet with down = (if is_last t then [] else [ msg ]); finished = true }
  | Rpc.Fetch_drop { dial_round; index } ->
      if not (is_last t) then { quiet with down = [ msg ] }
      else begin
        match Server.fetch_invitations ~dial_round t.server ~index with
        | invitations ->
            reply (Rpc.Drop_contents { dial_round; index; invitations })
        | exception e ->
            reply
              (Rpc.Status
                 (status t ~round:dial_round ~stage:"fetch-drop"
                    (Printexc.to_string e)))
      end
  | _ -> quiet

(* ------------------------------------------------------------------ *)
(* Downstream: results on their way back up                            *)
(* ------------------------------------------------------------------ *)

let settle t round =
  match t.inflight with
  | Some (r, _) when r = round -> t.inflight <- None
  | _ -> ()

let backward t ~dialing ~round replies =
  settle t round;
  match
    if dialing then Server.dial_backward t.server ~round replies
    else Server.conv_backward t.server ~round replies
  with
  | replies -> answer (Rpc.results ~dialing ~round replies)
  | exception e ->
      answer
        (Rpc.Status
           (status t ~round
              ~stage:(if dialing then "dial-results" else "conv-results")
              (Printexc.to_string e)))

let downstream t msg =
  match msg with
  | Rpc.Conv_results { round; replies } ->
      backward t ~dialing:false ~round replies
  | Rpc.Dial_results { round; replies } ->
      backward t ~dialing:true ~round replies
  | Rpc.Drop_contents _ -> reply msg
  | Rpc.Status st ->
      settle t st.Rpc.round;
      answer msg
  | _ -> quiet

let downstream_lost t =
  match t.inflight with
  | None -> quiet
  | Some (round, dialing) ->
      t.inflight <- None;
      answer
        (Rpc.Status
           (status t ~round ~stage:(batch_stage ~dialing)
              "downstream link lost"))

(* ------------------------------------------------------------------ *)
(* Entry side                                                          *)
(* ------------------------------------------------------------------ *)

let request_len ~chain_len ~dial_kind ~dialing =
  Vuvuzela_mixnet.Onion.request_size ~chain_len
    ~payload_len:
      (if dialing then Dialing.payload_len dial_kind
       else Types.exchange_payload_len)

(* Entry-server ingress policy: part frames require uniform item sizes,
   so a wrong-sized client request is replaced with random bytes of the
   correct size. *)
let normalize ~expected requests =
  Array.map
    (fun r ->
      if Bytes.length r = expected then r
      else Vuvuzela_crypto.Drbg.bytes expected)
    requests

let entry ~chain_len ~dial_kind ?m ~round ~produce send =
  let expected = request_len ~chain_len ~dial_kind ~dialing:(m <> None) in
  let held = ref None in
  let seq = ref 0 in
  produce (fun chunk ->
      Option.iter
        (fun prev ->
          send (Rpc.part ?m ~round ~seq:!seq ~last:false prev);
          incr seq)
        !held;
      held := Some (normalize ~expected chunk));
  send
    (Rpc.part ?m ~round ~seq:!seq ~last:true
       (Option.value !held ~default:[||]))
