(* One chain server per process; see the interface for the topology and
   the handshake cascade.

   Concurrency shape: everything runs on the transport's event loop in
   one thread.  The hop rules live in the {!Relay}; this module is its
   TCP shell: the handshake, the upstream outbox, the downstream flap
   grace, hop spans, the fault effects a relay reports (real sleeps and
   socket resets), and the scrape endpoints. *)

module Transport = Vuvuzela_transport.Transport
module Conn = Vuvuzela_transport.Conn
module Evloop = Vuvuzela_transport.Evloop
module Shaper = Vuvuzela_transport.Shaper
module Httpd = Vuvuzela_transport.Httpd
module Fault = Vuvuzela_faults.Fault
module Telemetry = Vuvuzela_telemetry.Telemetry
module Trace = Vuvuzela_telemetry.Trace
module Metrics = Vuvuzela_telemetry.Metrics
module Json = Vuvuzela_telemetry.Json

type config = {
  listen : Unix.sockaddr;
  next : Unix.sockaddr option;
  index : int;
  chain_len : int;
  seed : string option;
  noise : Vuvuzela_dp.Laplace.params;
  dial_noise : Vuvuzela_dp.Laplace.params;
  noise_mode : Vuvuzela_dp.Noise.mode;
  dial_kind : Dialing.kind;
  jobs : int;
  deaddrop_shards : int;
  pipeline_chunk : int option;
      (** forward part size: [Some chunk] onions per part, [None] one
          part per batch.  Ingress accepts parts of any size. *)
  fault_plan : Vuvuzela_faults.Fault.plan option;
  link : Shaper.config option;
      (** emulated WAN characteristics of the downstream link *)
  flap_grace_ms : float;
      (** how long a lost downstream link may stay down mid-round before
          the round is abandoned with a [Status] *)
  metrics_listen : Unix.sockaddr option;
      (** mount the scrape endpoints ([/metrics], [/healthz], [/trace])
          on this address; a telemetry sink is created if none is
          supplied *)
  trace_out : string option;
      (** write this daemon's span trace (JSONL) here on shutdown *)
}

type st = {
  cfg : config;
  tp : Transport.t;
  log : string -> unit;
  tel : Telemetry.t option;
  started_ms : float;
  mutable relay : Relay.t option;  (** once the server's keys exist *)
  mutable suffix : bytes list;  (** downstream public keys, chain order *)
  mutable upstream : Conn.t option;
  mutable downstream : Conn.t option;
  mutable hello_pending : bool;
      (** upstream said Hello before our own keys existed *)
  outbox : bytes Queue.t;
      (** upstream frames owed while the upstream link is down; flushed
          (after the Chain_info reply) when the peer reconnects — a
          round survives an upstream flap instead of silently losing its
          results *)
  mutable ctx : Trace.context option;
      (** trace context announced by the upstream peer for the next
          batch; taken when that batch's part 0 arrives *)
  mutable pass_ctx : Trace.context option;
      (** with tracing off here: the round's upstream context, passed
          on unchanged ahead of the forwarded batch *)
  mutable hop : (Trace.span * (float * int)) option;
      (** the open per-round hop span, with the (shaped delay, outage
          count) transport-stats snapshot taken when it opened *)
  mutable last_round : int;
  mutable hops_done : int;
  mutable stop : bool;
}

let is_last st = st.cfg.next = None

(* Bounded so a peer that never returns cannot pin unbounded replies;
   drop-oldest, because the supervisor has certainly abandoned the
   oldest round first. *)
let outbox_cap = 128

let outbox_gauge st =
  Telemetry.set_gauge st.tel "vuvuzela_daemon_outbox_depth"
    (float_of_int (Queue.length st.outbox))

let send_upstream st msg =
  (match st.upstream with
  | Some up when Conn.state up <> Conn.Closed -> Conn.send up (Rpc.encode msg)
  | _ ->
      if Queue.length st.outbox >= outbox_cap then ignore (Queue.pop st.outbox);
      Queue.push (Rpc.encode msg) st.outbox);
  outbox_gauge st

let flush_outbox st =
  (match st.upstream with
  | Some up when Conn.state up <> Conn.Closed ->
      while not (Queue.is_empty st.outbox) do
        Conn.send up (Queue.pop st.outbox)
      done
  | _ -> ());
  outbox_gauge st

let send_downstream st msg =
  match st.downstream with
  | Some down -> Conn.send down (Rpc.encode msg)
  | None -> ()

let status st ~round ~stage detail =
  { Rpc.round; server = st.cfg.index; stage; detail }

(* ------------------------------------------------------------------ *)
(* Hop spans (distributed tracing)                                     *)
(* ------------------------------------------------------------------ *)

(* One span per (round, daemon) covering everything between batch
   arrival and the last frame owed for it; the upstream [Trace_ctx] (if
   any) becomes its remote parent, and the [Server] stage spans nest
   under it via the tracer's open stack.  WAN-emulation waits are
   recorded as annotations, not latency: the shaped delay and flap
   outages accumulated while the hop was open mirror PR 3's
   virtual-delay exclusion rule on the daemon side. *)

let close_hop st =
  match st.hop with
  | None -> ()
  | Some (span, (shaped0, outages0)) ->
      st.hop <- None;
      (match st.tel with
      | None -> ()
      | Some tel ->
          let s = Transport.stats st.tp in
          let shaped = s.Conn.shaped_delay_ms -. shaped0 in
          if shaped > 0. then
            span.Trace.annotations <-
              ("shaper.delay_ms", Printf.sprintf "%.3f" shaped)
              :: span.Trace.annotations;
          if s.Conn.outages > outages0 then begin
            span.Trace.annotations <-
              ("flap.outages", string_of_int (s.Conn.outages - outages0))
              :: span.Trace.annotations;
            span.Trace.annotations <-
              ("flap.wait_ms", Printf.sprintf "%.3f" s.Conn.last_outage_ms)
              :: span.Trace.annotations
          end;
          Trace.end_span (Telemetry.trace tel) span;
          st.hops_done <- st.hops_done + 1;
          Telemetry.add_counter st.tel "vuvuzela_daemon_hops_total";
          Transport.publish st.tp)

let open_hop st ~round ~dialing =
  st.last_round <- round;
  let remote = st.ctx in
  st.ctx <- None;
  match st.tel with
  | None -> st.pass_ctx <- remote
  | Some tel ->
      close_hop st;
      let span =
        Trace.begin_remote_span (Telemetry.trace tel) ~name:"hop" ~round
          ~server:st.cfg.index ~dialing ?remote ()
      in
      let s = Transport.stats st.tp in
      st.hop <- Some (span, (s.Conn.shaped_delay_ms, s.Conn.outages))

(* Ahead of a forwarded batch: downstream parents into our hop span
   (transitively into the coordinator's round root).  With tracing off
   here, the upstream context passes through unchanged so the hops
   beyond us still link up. *)
let stamp_trace_ctx st =
  let ctx =
    match (st.tel, st.hop) with
    | Some tel, Some (span, _) ->
        Some (Trace.context_of (Telemetry.trace tel) span)
    | _ -> st.pass_ctx
  in
  st.pass_ctx <- None;
  Option.iter
    (fun c ->
      send_downstream st (Rpc.Trace_ctx { ctx = Trace.encode_context c }))
    ctx

(* Create the Server and its relay once the downstream suffix is known
   — immediately for the last server, after the first successful
   handshake otherwise.  The rng-seed derivation matches
   {!Chain.of_config} byte for byte: that is the whole determinism
   argument for the multi-process deployment. *)
let ensure_server ?on_ready st =
  if st.relay = None then begin
    let cfg = st.cfg in
    let rng_seed =
      Option.map
        (fun s ->
          Bytes.cat (Bytes.of_string s)
            (Bytes.of_string (Printf.sprintf "-server-%d" cfg.index)))
        cfg.seed
    in
    let server =
      Server.create ?rng_seed ?telemetry:st.tel
        ~cfg:
          {
            Server.position = cfg.index;
            chain_len = cfg.chain_len;
            noise = cfg.noise;
            dial_noise = cfg.dial_noise;
            noise_mode = cfg.noise_mode;
            dial_kind = cfg.dial_kind;
            jobs = cfg.jobs;
            deaddrop_shards = cfg.deaddrop_shards;
          }
        ~suffix_pks:st.suffix ()
    in
    st.relay <-
      Some
        (Relay.create
           ?faults:(Option.map Fault.injector cfg.fault_plan)
           ?telemetry:st.tel ?chunk:cfg.pipeline_chunk ~index:cfg.index server);
    st.log
      (Printf.sprintf "server %d/%d ready (%d downstream key(s))" cfg.index
         cfg.chain_len (List.length st.suffix));
    Option.iter (fun f -> f ()) on_ready;
    if st.hello_pending then begin
      st.hello_pending <- false;
      send_upstream st
        (Rpc.Chain_info { pks = Server.public_key server :: st.suffix });
      flush_outbox st
    end
  end

(* ------------------------------------------------------------------ *)
(* Relay effects                                                       *)
(* ------------------------------------------------------------------ *)

(* Apply what the relay decided.  Over sockets a stall is a real sleep,
   a reset closes the upstream connection (the peer's reconnect finds
   us again; owed frames wait in the outbox), and a lost batch is
   silence — the coordinator's deadline catches it. *)
let emit st (out : Relay.output) =
  if out.fired <> [] then
    st.log
      (Printf.sprintf "round %d: firing %s" st.last_round
         (String.concat ","
            (List.map (Format.asprintf "%a" Fault.pp_kind) out.fired)));
  if out.reset then begin
    Option.iter Conn.close st.upstream;
    st.upstream <- None
  end;
  if out.stall_ms > 0 then Unix.sleepf (float_of_int out.stall_ms /. 1000.);
  (match out.down with
  | (Rpc.Conv_batch_part { seq = 0; _ } | Rpc.Dial_batch_part { seq = 0; _ })
    :: _ ->
      stamp_trace_ctx st
  | _ -> ());
  List.iter (send_downstream st) out.down;
  List.iter (send_upstream st) out.up;
  if out.finished then close_hop st

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)
(* ------------------------------------------------------------------ *)

let handle_downstream st msg =
  Option.iter (fun relay -> emit st (Relay.downstream relay msg)) st.relay

let handle_upstream st raw =
  match Rpc.decode raw with
  | Error e ->
      send_upstream st
        (Rpc.Status (status st ~round:0 ~stage:"frame" e))
  | Ok (Rpc.Hello _) -> (
      match st.relay with
      | Some relay ->
          send_upstream st
            (Rpc.Chain_info
               { pks = Server.public_key (Relay.server relay) :: st.suffix });
          (* Frames owed from before the flap follow the handshake
             reply, in order: the reconnected peer's pending round can
             still complete. *)
          flush_outbox st
      | None -> st.hello_pending <- true)
  | Ok (Rpc.Trace_ctx { ctx }) ->
      (* Tolerated-if-absent, ignored-if-malformed: a poisoned blob
         decodes to [None] and costs only the parent link. *)
      st.ctx <- Trace.decode_context ctx
  | Ok Rpc.Bye ->
      close_hop st;
      send_downstream st Rpc.Bye;
      st.stop <- true
  | Ok msg -> (
      let round_start =
        match msg with
        | Rpc.Conv_batch_part { round; seq = 0; _ } -> Some (round, false)
        | Rpc.Dial_batch_part { round; seq = 0; _ } -> Some (round, true)
        | _ -> None
      in
      match (st.relay, round_start) with
      | Some relay, _ ->
          (* The hop span opens before the relay peels part 0, so the
             server's stage spans nest under it. *)
          Option.iter
            (fun (round, dialing) -> open_hop st ~round ~dialing)
            round_start;
          emit st (Relay.upstream relay ~raw msg)
      | None, Some (round, _) ->
          (* A batch before our keys exist can only mean the chain is
             still assembling; the peer's supervisor will retry.  A
             round answers once, at its first part. *)
          send_upstream st
            (Rpc.Status
               (status st ~round ~stage:"transport" "server not ready"))
      | None, None -> ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let run ?telemetry ?(log = fun _ -> ()) ?on_ready cfg =
  if cfg.index < 0 || cfg.index >= cfg.chain_len then
    Error
      (Printf.sprintf "daemon: index %d outside chain of %d" cfg.index
         cfg.chain_len)
  else if (cfg.next = None) <> (cfg.index = cfg.chain_len - 1) then
    Error "daemon: exactly the last server runs without --next"
  else begin
    (* Scrape endpoints imply a sink: a daemon asked to expose /metrics
       self-instruments even when the embedder passed none.  Origin
       [index + 1] is the merge convention (0 is the coordinator). *)
    let telemetry =
      match telemetry with
      | Some _ -> telemetry
      | None when cfg.metrics_listen <> None || cfg.trace_out <> None ->
          Some (Telemetry.create ~origin:(cfg.index + 1) ())
      | None -> None
    in
    let tp = Transport.create ?telemetry () in
    let st =
      {
        cfg;
        tp;
        log;
        tel = telemetry;
        started_ms = Unix.gettimeofday () *. 1000.;
        relay = None;
        suffix = [];
        upstream = None;
        downstream = None;
        hello_pending = false;
        outbox = Queue.create ();
        ctx = None;
        pass_ctx = None;
        hop = None;
        last_round = 0;
        hops_done = 0;
        stop = false;
      }
    in
    (* Listen before anything else: an upstream peer may dial while the
       downstream handshake is still assembling; its Hello waits. *)
    let listener =
      Transport.listen tp cfg.listen
        ~on_accept:(fun fd peer ->
          st.log
            (Printf.sprintf "upstream connection from %s"
               (Vuvuzela_transport.Addr.to_string peer));
          (* The chain has exactly one upstream; a new connection
             replaces a dead (or superseded) predecessor. *)
          Option.iter Conn.close st.upstream;
          let conn =
            Conn.of_fd ~loop:(Transport.loop tp) ~fd
              ~stats:(Transport.stats tp)
              ~on_frame:(fun _ raw -> handle_upstream st raw)
              ~on_drop:(fun conn ->
                (* physical equality: a Conn.t holds closures, and this
                   conn may already have been superseded by a newer
                   accept *)
                match st.upstream with
                | Some current when current == conn -> st.upstream <- None
                | _ -> ())
              ()
          in
          st.upstream <- Some conn)
        ()
    in
    match listener with
    | Error e -> Error e
    | Ok _listener -> (
        (* /healthz is rendered per request, so it always reflects live
           state: chain position, peer liveness, round progress. *)
        let healthz () =
          let connected = function
            | Some c -> Conn.state c <> Conn.Closed
            | None -> false
          in
          Json.to_string
            (Json.Obj
               [
                 ( "status",
                   Json.Str (if st.relay <> None then "ok" else "starting") );
                 ("index", Json.Num (float_of_int cfg.index));
                 ("chain_len", Json.Num (float_of_int cfg.chain_len));
                 ("last", Json.Bool (is_last st));
                 ("round", Json.Num (float_of_int st.last_round));
                 ("hops_done", Json.Num (float_of_int st.hops_done));
                 ("upstream_connected", Json.Bool (connected st.upstream));
                 ("downstream_connected", Json.Bool (connected st.downstream));
                 ("outbox_depth", Json.Num (float_of_int (Queue.length st.outbox)));
                 ( "uptime_ms",
                   Json.Num ((Unix.gettimeofday () *. 1000.) -. st.started_ms) );
               ])
          ^ "\n"
        in
        let routes path =
          match (path, st.tel) with
          | "/healthz", _ -> Some ("application/json", healthz ())
          | "/metrics", Some tel ->
              (* Refresh the liveness gauges at scrape time so the
                 exposition is never empty: a freshly started daemon
                 already reports uptime, position, and queue depth. *)
              Telemetry.set_gauge st.tel "vuvuzela_daemon_uptime_ms"
                ((Unix.gettimeofday () *. 1000.) -. st.started_ms);
              Telemetry.set_gauge st.tel "vuvuzela_daemon_chain_index"
                (float_of_int cfg.index);
              Telemetry.set_gauge st.tel "vuvuzela_daemon_outbox_depth"
                (float_of_int (Queue.length st.outbox));
              Telemetry.set_gauge st.tel "vuvuzela_daemon_round"
                (float_of_int st.last_round);
              Some
                ( "text/plain; version=0.0.4",
                  Metrics.to_prometheus (Telemetry.metrics tel) )
          | "/trace", Some tel ->
              Some ("application/jsonl", Trace.to_jsonl (Telemetry.trace tel))
          | _ -> None
        in
        let httpd =
          match cfg.metrics_listen with
          | None -> Ok None
          | Some addr -> (
              match Httpd.serve (Transport.loop tp) ~addr ~routes with
              | Ok h ->
                  st.log (Printf.sprintf "scrape endpoints on port %d" (Httpd.port h));
                  Ok (Some h)
              | Error e -> Error e)
        in
        match httpd with
        | Error e -> Error e
        | Ok httpd ->
        (match cfg.next with
        | None ->
            ensure_server ?on_ready st (* last server: no suffix *)
        | Some next_addr ->
            let backoff_seed =
              Option.map
                (fun s -> Printf.sprintf "%s-backoff-%d" s cfg.index)
                cfg.seed
            in
            let shaper =
              Option.map
                (fun link ->
                  match cfg.seed with
                  | Some s ->
                      Shaper.with_seed
                        (Printf.sprintf "%s-link-%d" s cfg.index)
                        link
                  | None -> link)
                cfg.link
            in
            let down =
              Transport.dial tp ~addr:next_addr
                ~hello:(Rpc.encode (Rpc.Hello { index = cfg.index }))
                ?backoff_seed ?shaper
                ~on_established:(fun _ payload ->
                  match Rpc.decode payload with
                  | Ok (Rpc.Chain_info { pks }) ->
                      if st.relay = None then begin
                        st.suffix <- pks;
                        ensure_server ?on_ready st
                      end
                  | Ok _ | Error _ ->
                      st.log "malformed downstream handshake reply")
                ~on_frame:(fun _ raw ->
                  match Rpc.decode raw with
                  | Ok msg -> handle_downstream st msg
                  | Error _ -> ())
                ~on_drop:(fun conn ->
                  st.log "downstream link lost";
                  (* Grace, not instant abort: the connection redials on
                     its own, the successor holds our round's results in
                     its outbox, and a link that heals inside
                     [flap_grace_ms] lets the round complete.  Only a
                     link still down (for the same in-flight round) when
                     the grace expires abandons the round. *)
                  match st.relay with
                  | None -> ()
                  | Some relay -> (
                      match Relay.inflight relay with
                      | Some inflight when cfg.flap_grace_ms > 0. ->
                          ignore
                            (Evloop.after (Transport.loop tp)
                               ~ms:cfg.flap_grace_ms (fun () ->
                                 if
                                   Relay.inflight relay = Some inflight
                                   && not (Conn.established conn)
                                 then emit st (Relay.downstream_lost relay)))
                      | Some _ -> emit st (Relay.downstream_lost relay)
                      | None -> ()))
                ()
            in
            st.downstream <- Some down);
        while not st.stop do
          Transport.run_once tp
        done;
        (* Drain: let the forwarded Bye and any last replies flush. *)
        for _ = 1 to 10 do
          Transport.run_once ~max_wait_ms:5. tp
        done;
        close_hop st;
        (match (cfg.trace_out, st.tel) with
        | Some path, Some tel ->
            let oc = open_out path in
            output_string oc (Trace.to_jsonl (Telemetry.trace tel));
            close_out oc
        | _ -> ());
        Option.iter (fun h -> Httpd.close h) httpd;
        Option.iter Conn.close st.downstream;
        Option.iter Conn.close st.upstream;
        Option.iter (fun r -> Server.shutdown (Relay.server r)) st.relay;
        Ok ())
  end
