(* The chain of Vuvuzela servers and round orchestration (§3).

   All clients connect (through the entry server) to server 0; requests
   travel down the chain, are resolved at the last server, and results
   travel back up.  In-process, each server is a {!Relay} and the links
   between them are a FIFO of frames, each pushed through the Rpc codec
   on its way — the TCP chain without sockets. *)

module Pool = Vuvuzela_parallel.Pool
module Fault = Vuvuzela_faults.Fault
module Telemetry = Vuvuzela_telemetry.Telemetry

type t = {
  relays : Relay.t array;
  pool : Pool.t option;  (** shared by all servers; [None] ⇒ sequential *)
  faults : Fault.injector option;  (** shared by every relay's link *)
  tel : Telemetry.t option;
  dial_kind : Dialing.kind;
  mutable shut_down : bool;
  mutable delay_ms : float;
      (** virtual link stall accumulated by the faults of the round in
          flight; reset when a round starts *)
}

let of_config (cfg : Config.t) =
  if cfg.n_servers < 1 then
    invalid_arg "Chain.of_config: need at least one server";
  if cfg.jobs < 1 then invalid_arg "Chain.of_config: jobs must be >= 1";
  (* The servers take turns (the in-process round trip is sequential
     along the chain), so one pool serves them all. *)
  let pool = if cfg.jobs > 1 then Some (Pool.create ~jobs:cfg.jobs) else None in
  let faults = Option.map Fault.injector cfg.fault_plan in
  let chunk = if cfg.pipeline then Some cfg.pipeline_chunk else None in
  (* Build from the last server backwards so each server knows the public
     keys of its downstream suffix. *)
  let relays = Array.make cfg.n_servers None in
  let suffix = ref [] in
  for position = cfg.n_servers - 1 downto 0 do
    let scfg =
      {
        Server.position;
        chain_len = cfg.n_servers;
        noise = cfg.noise;
        dial_noise = cfg.dial_noise;
        noise_mode = cfg.noise_mode;
        dial_kind = cfg.dial_kind;
        jobs = cfg.jobs;
        deaddrop_shards = cfg.deaddrop_shards;
      }
    in
    let rng_seed =
      Option.map
        (fun s ->
          Bytes.cat (Bytes.of_string s)
            (Bytes.of_string (Printf.sprintf "-server-%d" position)))
        cfg.seed
    in
    let server =
      Server.create ?rng_seed ?pool ?telemetry:cfg.telemetry ~cfg:scfg
        ~suffix_pks:!suffix ()
    in
    relays.(position) <-
      Some
        (Relay.create ?faults ?tap:cfg.tap ?telemetry:cfg.telemetry ?chunk
           ~index:position server);
    suffix := Server.public_key server :: !suffix
  done;
  {
    relays = Array.map Option.get relays;
    pool;
    faults;
    tel = cfg.telemetry;
    dial_kind = cfg.dial_kind;
    shut_down = false;
    delay_ms = 0.;
  }

let length t = Array.length t.relays
let server t i = Relay.server t.relays.(i)
let last t = server t (length t - 1)
let jobs t = match t.pool with Some p -> Pool.jobs p | None -> 1

let shutdown t =
  t.shut_down <- true;
  Option.iter Pool.shutdown t.pool

let is_shut_down t = t.shut_down
let last_round_delay_ms t = t.delay_ms

let pending_faults t =
  match t.faults with None -> 0 | Some inj -> Fault.pending inj

(* Public keys in chain order — what clients onion-wrap against. *)
let public_keys t =
  List.init (length t) (fun i -> Server.public_key (server t i))

(* ------------------------------------------------------------------ *)
(* In-memory links                                                     *)
(* ------------------------------------------------------------------ *)

(* A queued frame: the relay it is for, and which peer sent it. *)
type arrival = From_upstream | From_downstream

(* Deliver queued frames until the links are quiet.  Every frame is
   encoded and decoded on its way, so the relays receive exactly the
   bytes a networked deployment would.  Stall effects become virtual
   round time; a lost batch becomes the typed status its relay reports
   upstream.  What leaves server 0 upstream goes to [reply]. *)
let pump t queue ~reply =
  let rec loop () =
    match Queue.take_opt queue with
    | None -> ()
    | Some (i, arrival, msg) ->
        let raw = Rpc.encode msg in
        let msg =
          match Rpc.decode raw with
          | Ok msg -> msg
          | Error _ -> assert false (* the codec round-trips its own frames *)
        in
        let out =
          match arrival with
          | From_upstream -> Relay.upstream t.relays.(i) ~raw msg
          | From_downstream -> Relay.downstream t.relays.(i) msg
        in
        t.delay_ms <- t.delay_ms +. float_of_int out.Relay.stall_ms;
        let up =
          match out.Relay.lost with
          | Some st -> out.Relay.up @ [ Rpc.Status st ]
          | None -> out.Relay.up
        in
        List.iter
          (fun m ->
            if i = 0 then reply m
            else Queue.push (i - 1, From_downstream, m) queue)
          up;
        List.iter
          (fun m -> Queue.push (i + 1, From_upstream, m) queue)
          out.Relay.down;
        loop ()
  in
  loop ()

(* One round: the entry streams the producer's chunks into server 0 as
   part frames, each delivered as soon as it is sent, and the first
   results or status for [round] that reaches the entry is the
   outcome. *)
let round_trip t ~round ?m ~produce () =
  if t.shut_down then Error (Rpc.chain_shutdown ~round)
  else begin
    t.delay_ms <- 0.;
    let dialing = m <> None in
    let outcome = ref None in
    let reply msg =
      if !outcome = None then
        match msg with
        | ( Rpc.Conv_results { round = r; replies }
          | Rpc.Dial_results { round = r; replies } )
          when r = round ->
            outcome := Some (Ok replies)
        | Rpc.Status st when st.Rpc.round = round -> outcome := Some (Error st)
        | _ -> ()
    in
    let queue = Queue.create () in
    Telemetry.span t.tel
      ~name:(if dialing then "dial-round" else "conv-round")
      ~round ~dialing
      (fun () ->
        Relay.entry ~chain_len:(length t) ~dial_kind:t.dial_kind ?m ~round
          ~produce (fun msg ->
            Queue.push (0, From_upstream, msg) queue;
            pump t queue ~reply);
        match !outcome with
        | Some outcome -> outcome
        | None ->
            Error (Rpc.transport_error ~round ~server:0 ~detail:"no reply"))
  end

let conversation_round_streamed t ~round ~produce =
  round_trip t ~round ~produce ()

let dialing_round_streamed t ~round ~m ~produce =
  round_trip t ~round ~m ~produce ()

(* Convenience for callers (benchmarks, tests, attack harnesses) that
   hold the whole batch and treat a failed round as fatal. *)
let or_fail = function
  | Ok replies -> replies
  | Error st -> failwith (Format.asprintf "Chain: %a" Rpc.pp_status st)

let conversation_round_exn t ~round requests =
  or_fail (round_trip t ~round ~produce:(fun feed -> feed requests) ())

let dialing_round_exn t ~round ~m requests =
  or_fail (round_trip t ~round ~m ~produce:(fun feed -> feed requests) ())

(* Clients download invitation drops straight from the last server
   (§5.5: fetches need no mixing). *)
let fetch_invitations ?dial_round t ~index =
  Server.fetch_invitations ?dial_round (last t) ~index

(* Discard a failed round's state on every server — an [Abort] frame
   forwarded hop to hop — so the supervisor's retry (under a fresh round
   number) starts from a clean slate and each server redraws its noise
   for the new attempt. *)
let abort t ~round ~dialing =
  let queue = Queue.create () in
  Queue.push (0, From_upstream, Rpc.Abort { round; dialing }) queue;
  pump t queue ~reply:ignore

(* §5.4: "The first server then informs clients of the value of m for a
   given dialing round" — surfaced here for the coordinator. *)
let proposed_m t = Server.proposed_m (last t)

(* Adversary's view of the most recent round (for the attack harness). *)
let observed_histogram t = Server.last_histogram (last t)
