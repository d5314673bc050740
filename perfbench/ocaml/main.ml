(* perfbench: the round benchmark.

   One run measures one named workload as a closed loop with one round
   in flight, the way the coordinator drives Vuvuzela: between rounds
   the clients build the next round's requests (untimed, reported as
   client CPU); a round is timed from the first chunk handed to the
   streamed round call until the slot-aligned replies come back; then
   every reply is checked (conversation: [Loadgen.verify]; dialing:
   every ack unwraps and every real invitation is found by its callee's
   scan of the fetched drop).

   Workloads:
     conv-tcp    3 vuvuzela-server daemons over loopback TCP, µ=4
     conv-noise  in-process Chain at the paper's noise ratio µ/n = 0.3
     dial-tcp    3 daemons, 5% real invitations, per-drop dial noise

   With [--trace 0] the run prints the end-to-end metrics, time and
   CPU figures scaled by a host-speed factor (see [reference_ms]).  With
   [--trace 1] it runs the same workload three times with the same
   seed — untraced, instrumented (spans around this file's calls into
   the library, per-round /proc and link sampling, daemons scraped over
   --metrics-listen), and as an in-process replay in which this file
   relays batches between [Chain.server] instances through [Rpc] parts
   with a span around every call — and prints the per-layer metrics.
   The replies of the first rounds are digested; the three digests must
   agree, and the replay's layer spans must cover its round time within
   [addup_tolerance].  No instrumentation lives inside lib/.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  A fuller record with
   provenance, per-round samples and the digests is written under
   [results_dir]. *)

open Vuvuzela
module Pool = Vuvuzela_parallel.Pool
module Loadgen = Vuvuzela_loadgen.Loadgen
module Addr = Vuvuzela_transport.Addr
module Clock = Vuvuzela_transport.Clock
module Httpd = Vuvuzela_transport.Httpd
module Json = Vuvuzela_telemetry.Json
module Laplace = Vuvuzela_dp.Laplace
module Noise = Vuvuzela_dp.Noise
module Onion = Vuvuzela_mixnet.Onion
module Drbg = Vuvuzela_crypto.Drbg
module Sha256 = Vuvuzela_crypto.Sha256
module Bytes_util = Vuvuzela_crypto.Bytes_util

let n_servers = 3

(* The replay's layer spans must cover at least this share of its round
   wall-clock time; the rest is reported as [replay.uncovered_ms]. *)
let addup_tolerance = 0.05

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind = Conv | Dial
type deploy = Tcp | In_process

type workload = {
  name : string;
  kind : kind;
  deploy : deploy;
  population : int;
  mu : float;
  b : float;
  dial_mu : float;
  dial_b : float;
  dial_fraction : float;  (** share of clients sending a real invitation *)
  invites_per_drop : int;  (** sets m = real invitations / this *)
}

(* Settings every workload shares. *)
let nproc = Pool.default_jobs ()
let shards = 8
let chunk = 512
let daemon_jobs = 1
let chain_jobs = min 2 nproc  (* in-process chain only *)
let pool_jobs = nproc  (* coordinator pool, used between rounds only *)
let digest_rounds = 3  (* timed rounds covered by the reply digest *)
let results_dir = "perfbench/results"  (* full per-run records *)
let setups = 5  (* set-ups per untraced run; setup_s is their median *)

let base =
  {
    name = "";
    kind = Conv;
    deploy = Tcp;
    population = 1;
    mu = 4.;
    b = 1.;
    dial_mu = 1.;
    dial_b = 1.;
    dial_fraction = 0.;
    invites_per_drop = 1;
  }

(* Populations are sized so a 25 s run holds 17-35 rounds on a 2-core
   host: at ~1,000 clients a run held ~8 rounds and host noise left the
   run medians unsteady.  [population] overrides the size (the
   benchmark's own tests run toy sizes); derived parameters keep their
   ratios. *)
let workload_of_name ?population name =
  let pop default = Option.value population ~default in
  match name with
  | "conv-tcp" -> Some { base with name; population = pop 400 }
  | "conv-noise" ->
      (* The paper's ratios at 1M users: µ/n = 0.3, b/µ = 0.046. *)
      let n = pop 300 in
      let mu = Float.max 1. (0.3 *. float_of_int n) in
      Some
        { base with name; deploy = In_process; population = n; mu; b = 0.046 *. mu }
  | "dial-tcp" ->
      (* Per-drop noise, 3 servers × 6, outnumbers the 5 real
         invitations every drop receives. *)
      Some
        {
          base with
          name;
          kind = Dial;
          population = pop 400;
          dial_mu = 6.;
          dial_fraction = 0.05;
          invites_per_drop = 5;
        }
  | _ -> None

(* Real invitations per dialing round, and the invitation-drop count m
   that spreads them [invites_per_drop] to a drop. *)
let dial_real w =
  max 1 (int_of_float (w.dial_fraction *. float_of_int w.population))

let dial_m w = max 1 (dial_real w / w.invites_per_drop)

let workload_names = [ "conv-tcp"; "conv-noise"; "dial-tcp" ]
let fmt_float f = Printf.sprintf "%.17g" f

(* ------------------------------------------------------------------ *)
(* Process accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* /proc files report size 0, so read to end of file. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let buf = Buffer.create 4096 in
          let chunk = Bytes.create 4096 in
          let rec loop () =
            let k = input ic chunk 0 4096 in
            if k > 0 then begin
              Buffer.add_subbytes buf chunk 0 k;
              loop ()
            end
          in
          loop ();
          Some (Buffer.contents buf))

(* utime + stime of [pid] in seconds, from /proc/<pid>/stat (fields 14
   and 15, in clock ticks of 1/100 s). *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.
  | Some line -> (
      match String.rindex_opt line ')' with
      | None -> 0.
      | Some i -> (
          let rest = String.sub line (i + 2) (String.length line - i - 2) in
          match String.split_on_char ' ' rest with
          | fields when List.length fields > 12 ->
              let tick k = float_of_string (List.nth fields k) in
              (tick 11 +. tick 12) /. 100.
          | _ -> 0.))

(* VmHWM (peak resident set) of [pid] in MB, from /proc/<pid>/status. *)
let vm_hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.
  | Some s ->
      List.fold_left
        (fun acc line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            let kb =
              String.fold_left
                (fun a c ->
                  if c >= '0' && c <= '9' then (a * 10) + Char.code c - 48 else a)
                0 line
            in
            float_of_int kb /. 1024.
          else acc)
        0.
        (String.split_on_char '\n' s)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds spent in [f], across every domain of this process. *)
let cpu_timed f =
  let c0 = self_cpu_s () in
  let r = f () in
  (r, self_cpu_s () -. c0)

(* Host-speed reference.  This host is shared: its speed drifts by up to
   ~1.7x within minutes, slowing the same work's CPU time (contention)
   and, under CPU steal, its wall time further, so timings taken minutes
   apart are not comparable.  Before each round, once the clients have
   built it and the servers are idle, the coordinator runs this fixed
   limb-multiply loop — the benchmark's own code, untouched by any
   change to the library — timing it in wall and in CPU time.  The loop
   allocates nothing once started, so no minor collection (which would
   stop every domain the library started) falls inside it.  The
   end-to-end wall metrics are scaled by [reference_nominal_ms / median
   wall time of the loop in the run], the CPU metrics by the same ratio
   in CPU time: they read as on a host where the loop takes
   [reference_nominal_ms].  Raw values are printed and recorded beside
   them. *)
let reference_nominal_ms = 5.5

(* (wall ms, CPU ms) of one pass of the loop. *)
let reference_ms () =
  let a = Array.init 10 (fun i -> ((i * 0x3ffffff) land 0x3ffffff) + 1) in
  let b = Array.init 10 (fun i -> ((i * 0x2aaaaaa) land 0x3ffffff) + 3) in
  let t = Array.make 20 0 in
  let t0 = Clock.now_ms () and c0 = self_cpu_s () in
  for _ = 1 to 12000 do
    Array.fill t 0 20 0;
    for i = 0 to 9 do
      for j = 0 to 9 do
        t.(i + j) <- t.(i + j) + (a.(i) * b.(j))
      done
    done;
    for k = 0 to 18 do
      t.(k + 1) <- t.(k + 1) + (t.(k) lsr 26);
      t.(k) <- t.(k) land 0x3ffffff
    done;
    for i = 0 to 9 do
      a.(i) <- (t.(i) + (19 * t.(i + 10))) land 0x3ffffff
    done
  done;
  let wall = Clock.now_ms () -. t0 and cpu = 1000. *. (self_cpu_s () -. c0) in
  ignore (Sys.opaque_identity a);
  (wall, cpu)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span recorder for this file's own calls: kept in memory, written
   out when the run ends. *)
module Spans = struct
  type span = {
    id : int;
    parent : int;  (** -1 for a root *)
    name : string;
    round : int;
    start_ms : float;
    mutable end_ms : float;
  }

  type t = { mutable all : span list; mutable stack : span list; mutable next : int }

  let create () = { all = []; stack = []; next = 0 }

  let with_span t ~name ~round f =
    let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = t.next; parent; name; round; start_ms = Clock.now_ms (); end_ms = 0. }
    in
    t.next <- t.next + 1;
    t.stack <- s :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_ms <- Clock.now_ms ();
        t.stack <- List.tl t.stack;
        t.all <- s :: t.all)
      f

  (* Optional recorder: the untraced run passes [None]. *)
  let opt t ~name ~round f =
    match t with None -> f () | Some t -> with_span t ~name ~round f

  let dur s = s.end_ms -. s.start_ms
  let spans t = List.rev t.all

  let to_jsonl t =
    String.concat ""
      (List.map
         (fun s ->
           Json.to_string
             (Json.Obj
                [
                  ("id", Json.Num (float_of_int s.id));
                  ("parent", Json.Num (float_of_int s.parent));
                  ("name", Json.Str s.name);
                  ("round", Json.Num (float_of_int s.round));
                  ("start_ms", Json.Num s.start_ms);
                  ("end_ms", Json.Num s.end_ms);
                ])
           ^ "\n")
         (spans t))
end

(* ------------------------------------------------------------------ *)
(* Deployments                                                         *)
(* ------------------------------------------------------------------ *)

type round_call =
  round:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result

type deployment = {
  pks : bytes list;
  round : round_call;  (** conversation or dialing, per the workload *)
  fetch : dial_round:int -> index:int -> bytes list;
  pids : int array;  (** daemon pids in chain order; empty in-process *)
  link : unit -> int * int * int;  (** cumulative bytes, frames, reconnects *)
  metrics_addrs : Unix.sockaddr array;
  close : unit -> unit;
}

(* The daemon is built beside this executable (see ../run.py). *)
let server_bin () =
  Filename.concat (Filename.dirname Sys.executable_name) "bin/server_main.exe"

(* [k] distinct free loopback ports: every probe socket stays bound
   until all [k] are chosen, so no two can get the same port. *)
let free_ports k =
  let fds = List.init k (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0) in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close fds)
    (fun () ->
      Array.of_list
        (List.map
           (fun fd ->
             Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
             match Unix.getsockname fd with
             | Unix.ADDR_INET (_, p) -> p
             | _ -> failwith "free_ports: not an inet socket")
           fds))

(* Daemons still running: killed at exit whatever path the run takes. *)
let live_pids = ref []

(* Wait for [pid] to exit, at most [grace_s], then kill it. *)
let reap ?(grace_s = 5.) pid =
  live_pids := List.filter (( <> ) pid) !live_pids;
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let daemon_args w ~seed ~ports ~metrics_ports i =
  List.concat
    [
      [ server_bin (); "--listen"; Printf.sprintf "127.0.0.1:%d" ports.(i) ];
      [ "--index"; string_of_int i; "--chain-len"; string_of_int n_servers ];
      [ "--seed"; seed; "--mu"; fmt_float w.mu; "--noise-b"; fmt_float w.b ];
      [ "--dial-mu"; fmt_float w.dial_mu; "--dial-b"; fmt_float w.dial_b ];
      [ "--deterministic-noise"; "--jobs"; string_of_int daemon_jobs ];
      [ "--deaddrop-shards"; string_of_int shards ];
      [ "--pipeline"; "--pipeline-chunk"; string_of_int chunk; "--quiet" ];
      (if i = n_servers - 1 then []
       else [ "--next"; Printf.sprintf "127.0.0.1:%d" ports.(i + 1) ]);
      (match metrics_ports with
      | None -> []
      | Some mp -> [ "--metrics-listen"; Printf.sprintf "127.0.0.1:%d" mp.(i) ]);
    ]

(* Whether something listens on 127.0.0.1:[port], from /proc/net/tcp
   (state 0A), without connecting to it. *)
let listening port =
  let suffix = Printf.sprintf "0100007F:%04X" port in
  match read_file "/proc/net/tcp" with
  | None -> false
  | Some s ->
      List.exists
        (fun line ->
          match List.filter (( <> ) "") (String.split_on_char ' ' line) with
          | _ :: local :: _ :: "0A" :: _ -> local = suffix
          | _ -> false)
        (String.split_on_char '\n' s)

(* Poll until [port] listens, at most [timeout_s]; false when the
   daemon [pid] exited before it listened.  A daemon still starting when
   the time runs out is left to the connect's own timeout. *)
let wait_listening ?(timeout_s = 10.) ~pid port =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    if listening port || Unix.gettimeofday () > deadline then true
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.sleepf 0.002;
          poll ()
      | _ -> false
      | exception Unix.Unix_error _ -> false
  in
  poll ()

(* Attempts at starting the three daemons: when a daemon exits before it
   listens, as when its port was taken between [free_ports] and its
   bind, all three are started again on fresh ports. *)
let spawn_attempts = 3

(* Start the daemons, last first, each once its successor listens.
   Returns the data ports, the metrics ports and the pids. *)
let spawn_daemons w ~seed ~metrics =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
  let rec attempt k =
    let all = free_ports (if metrics then 2 * n_servers else n_servers) in
    let ports = Array.sub all 0 n_servers in
    let metrics_ports = if metrics then Some (Array.sub all n_servers n_servers) else None in
    let pids = Array.make n_servers 0 in
    let rec start i =
      i < 0
      ||
      let args = daemon_args w ~seed ~ports ~metrics_ports i in
      pids.(i) <-
        Unix.create_process (server_bin ()) (Array.of_list args) Unix.stdin devnull
          Unix.stderr;
      live_pids := pids.(i) :: !live_pids;
      (* Each daemon's first dial of its successor, and the
         coordinator's of server 0, then finds it listening, so no
         reconnect backoff falls into the set-up time. *)
      wait_listening ~pid:pids.(i) ports.(i) && start (i - 1)
    in
    if start (n_servers - 1) then (ports, metrics_ports, pids)
    else begin
      Array.iter (fun p -> if p > 0 then reap ~grace_s:0. p) pids;
      if k >= spawn_attempts then failwith "perfbench: the daemons did not start"
      else begin
        prerr_endline "perfbench: a daemon exited before it listened; retrying on fresh ports";
        attempt (k + 1)
      end
    end
  in
  attempt 1

let tcp_deploy w ~seed ~metrics =
  let ports, metrics_ports, pids = spawn_daemons w ~seed ~metrics in
  let stop_all () = Array.iter (fun p -> reap ~grace_s:0. p) pids in
  match
    Remote.connect ~handshake_timeout_ms:30_000.
      ~addr:(Addr.loopback ~port:ports.(0))
      ()
  with
  | Error e ->
      stop_all ();
      failwith ("remote connect: " ^ e)
  | Ok remote ->
      Remote.set_deadline_ms remote (Some 60_000.);
      let round : round_call =
        match w.kind with
        | Conv -> Remote.conversation_round_streamed remote
        | Dial -> Remote.dialing_round_streamed remote ~m:(dial_m w)
      in
      {
        pks = Remote.public_keys remote;
        round;
        fetch =
          (fun ~dial_round ~index ->
            Remote.fetch_invitations remote ~dial_round ~index);
        pids;
        link =
          (fun () ->
            let s = Remote.stats remote in
            ( s.bytes_in + s.bytes_out,
              s.frames_in + s.frames_out,
              s.reconnects ));
        metrics_addrs =
          (match metrics_ports with
          | None -> [||]
          | Some mp -> Array.map (fun p -> Addr.loopback ~port:p) mp);
        close =
          (fun () ->
            Remote.shutdown remote;
            Array.iter reap pids);
      }

let () =
  at_exit (fun () -> List.iter (fun p -> reap ~grace_s:0. p) !live_pids);
  (* A terminated run still stops its daemons. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143))

let chain_config w ~seed ~jobs =
  Config.(
    default |> with_seed seed |> with_n_servers n_servers
    |> with_noise (Laplace.params ~mu:w.mu ~b:w.b)
    |> with_dial_noise (Laplace.params ~mu:w.dial_mu ~b:w.dial_b)
    |> with_noise_mode Noise.Deterministic
    |> with_jobs jobs
    |> with_deaddrop_shards shards
    |> with_pipeline ~chunk:chunk true)

(* The jobs setting of the deployment's servers. *)
let server_jobs w =
  match w.deploy with Tcp -> daemon_jobs | In_process -> chain_jobs

let local_deploy w ~seed =
  let chain = Chain.of_config (chain_config w ~seed ~jobs:chain_jobs) in
  let round : round_call =
    match w.kind with
    | Conv -> Chain.conversation_round_streamed chain
    | Dial -> Chain.dialing_round_streamed chain ~m:(dial_m w)
  in
  {
    pks = Chain.public_keys chain;
    round;
    fetch =
      (fun ~dial_round ~index -> Chain.fetch_invitations ~dial_round chain ~index);
    pids = [||];
    link = (fun () -> (0, 0, 0));
    metrics_addrs = [||];
    close = (fun () -> Chain.shutdown chain);
  }

(* Cumulative CPU seconds of each server process; in-process, the one
   process's CPU (only ever differenced across a round call). *)
let server_cpu dep =
  if Array.length dep.pids = 0 then [| self_cpu_s () |]
  else Array.map proc_cpu_s dep.pids

let server_rss_mb dep =
  if Array.length dep.pids = 0 then vm_hwm_mb (Unix.getpid ())
  else Array.fold_left (fun acc p -> Float.max acc (vm_hwm_mb p)) 0. dep.pids

(* Sum of each daemon's [vuvuzela_stage_ms_sum{stage}] series, scraped
   from its /metrics endpoint. *)
let scrape_stage_sums addr =
  let prefix = "vuvuzela_stage_ms_sum{" in
  let stage_of line =
    let key = "stage=\"" in
    let rec find i =
      if i + String.length key > String.length line then None
      else if String.sub line i (String.length key) = key then
        let j = i + String.length key in
        Option.map (fun k -> String.sub line j (k - j)) (String.index_from_opt line j '"')
      else find (i + 1)
    in
    find 0
  in
  match Httpd.get ~timeout_ms:5000. addr "/metrics" with
  | Error e ->
      Printf.eprintf "perfbench: scrape %s: %s\n%!" (Addr.to_string addr) e;
      []
  | Ok (_, body) ->
      List.fold_left
        (fun acc line ->
          let pl = String.length prefix in
          if String.length line > pl && String.sub line 0 pl = prefix then
            match (stage_of line, String.rindex_opt line ' ') with
            | Some stage, Some sp -> (
                match
                  float_of_string_opt
                    (String.sub line (sp + 1) (String.length line - sp - 1))
                with
                | Some v ->
                    let prev = Option.value (List.assoc_opt stage acc) ~default:0. in
                    (stage, prev +. v) :: List.remove_assoc stage acc
                | None -> acc)
            | _ -> acc
          else acc)
        []
        (String.split_on_char '\n' body)

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

(* What one round's reply check found. *)
type outcome = {
  delivered : int;  (** requests whose reply checked out *)
  failed : int;  (** undelivered messages or invitations not found *)
  fetch_ms : float;
  drops : int;  (** invitation drops fetched *)
  drop_invitations : int;  (** invitations in the fetched drops *)
  scanned : int;  (** invitations trial-decrypted, over all callees *)
  scan_cpu_s : float;
  noise_margin : int;  (** min over drops of (noise − real) invitations *)
}

let no_reads =
  {
    delivered = 0;
    failed = 0;
    fetch_ms = 0.;
    drops = 0;
    drop_invitations = 0;
    scanned = 0;
    scan_cpu_s = 0.;
    noise_margin = max_int;
  }

type client = {
  build : round:int -> bytes array list;  (** the round's chunks *)
  check :
    spans:Spans.t option ->
    fetch:(dial_round:int -> index:int -> bytes list) ->
    round:int ->
    bytes array ->
    outcome;
}

let conv_client w ~seed ~pool ~pks =
  let n = w.population in
  let pop = Loadgen.create ~seed ~n () in
  {
    build =
      (fun ~round ->
        let chunks = ref [] in
        Loadgen.feed_conversation ?pool pop ~round ~server_pks:pks ~chunk:chunk
          ~sink:(fun c -> chunks := c :: !chunks);
        List.rev !chunks);
    check =
      (fun ~spans:_ ~fetch:_ ~round replies ->
        let d = Loadgen.verify ?pool pop ~round replies in
        let ok = d.Loadgen.delivered + min d.Loadgen.lone (n mod 2) in
        { no_reads with delivered = ok; failed = n - ok });
  }

let map_pool pool f a =
  match pool with Some p -> Pool.mapi_array p f a | None -> Array.mapi f a

(* A dialing population: [dial_real w] callers with fixed identities,
   each calling a fixed-identity callee; everyone else sends a no-op.
   Round r puts caller k in slot [k * stride + r mod stride] and pairs it
   with callee [(k + r) mod real], so slots and pairings move every
   round.  Callee identities are drawn until every invitation drop holds
   the same number of them, so each drop receives the same number of
   real invitations whatever the seed.  Every request is drawn from a
   DRBG keyed on (seed, round). *)
let dial_client w ~seed ~pool ~pks =
  let n = w.population in
  let real = dial_real w in
  let stride = max 1 (n / real) in
  let m = dial_m w in
  let ids_rng = Drbg.of_string (seed ^ "/identities") in
  let callers = Array.init real (fun _ -> Types.fresh_identity ~rng:ids_rng ()) in
  let per_drop = (real + m - 1) / m in
  let filled = Array.make m 0 in
  let rec balanced_callee () =
    let id = Types.fresh_identity ~rng:ids_rng () in
    let d = Dialing.my_drop ~identity:id ~m in
    if filled.(d) < per_drop then begin
      filled.(d) <- filled.(d) + 1;
      id
    end
    else balanced_callee ()
  in
  let callees = Array.init real (fun _ -> balanced_callee ()) in
  let callee ~round k = callees.((k + round) mod real) in
  let secrets = ref [||] in
  let ack = Bytes.make Types.dial_result_len '\001' in
  let build ~round =
    let rng = Drbg.of_string (Printf.sprintf "%s/round/%d" seed round) in
    let payloads =
      Array.init n (fun s ->
          let k = s / stride in
          if s mod stride = round mod stride && k < real then
            Dialing.invite ~rng ~identity:callers.(k)
              ~callee_pk:(callee ~round k).Types.public ~m ()
          else Dialing.noop ~rng ())
    in
    let eph =
      Array.init n (fun _ -> Onion.draw_eph_sks ~rng ~chain_len:n_servers ())
    in
    let wrapped =
      map_pool pool
        (fun i p -> Onion.wrap_with ~eph_sks:eph.(i) ~server_pks:pks ~round p)
        payloads
    in
    secrets := Array.map (fun (x : Onion.wrapped) -> x.secrets) wrapped;
    let onions = Array.map (fun (x : Onion.wrapped) -> x.onion) wrapped in
    Array.to_list (Rpc.split_parts ~chunk:chunk onions)
  in
  let check ~spans ~fetch ~round replies =
    let secrets = !secrets in
    let acked =
      map_pool pool
        (fun i reply ->
          match Onion.unwrap_reply ~secrets:secrets.(i) ~round reply with
          | Some a -> Bytes.equal a ack
          | None -> false)
        replies
    in
    let bad_acks = Array.fold_left (fun c ok -> if ok then c else c + 1) 0 acked in
    (* Each callee reads its own drop; a drop is downloaded once. *)
    let drop_of = Array.init real (fun k -> Dialing.my_drop ~identity:(callee ~round k) ~m) in
    let t0 = Clock.now_ms () in
    let drops =
      Spans.opt spans ~name:"remote.fetch" ~round (fun () ->
          List.map
            (fun d -> (d, fetch ~dial_round:round ~index:d))
            (List.sort_uniq compare (Array.to_list drop_of)))
    in
    let fetch_ms = Clock.now_ms () -. t0 in
    let found, scan_cpu_s =
      cpu_timed (fun () ->
          Spans.opt spans ~name:"dialing.scan" ~round (fun () ->
              map_pool pool
                (fun k d ->
                  let callers_found =
                    Dialing.scan ~identity:(callee ~round k) (List.assoc d drops)
                  in
                  List.exists (Bytes.equal callers.(k).Types.public) callers_found)
                drop_of))
    in
    let missing = Array.fold_left (fun c ok -> if ok then c else c + 1) 0 found in
    let size d = List.length (List.assoc d drops) in
    let noise_margin =
      List.fold_left
        (fun acc (d, invs) ->
          let real_here =
            Array.fold_left (fun c d' -> if d' = d then c + 1 else c) 0 drop_of
          in
          min acc (List.length invs - (2 * real_here)))
        max_int drops
    in
    {
      delivered = n - bad_acks;
      failed = bad_acks + missing;
      fetch_ms;
      drops = List.length drops;
      drop_invitations = List.fold_left (fun c (_, l) -> c + List.length l) 0 drops;
      scanned = Array.fold_left (fun c d -> c + size d) 0 drop_of;
      scan_cpu_s;
      noise_margin;
    }
  in
  { build; check }

let make_client w ~seed ~pool ~pks =
  match w.kind with
  | Conv -> conv_client w ~seed ~pool ~pks
  | Dial -> dial_client w ~seed ~pool ~pks

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type sample = {
  round : int;
  wall_ms : float;
  reference : float * float;  (** [reference_ms] just before the round *)
  server_cpu_s : float array;  (** per daemon, or the one process *)
  link_bytes : int;
  link_frames : int;
  link_reconnects : int;
  build_cpu_s : float;
  check_cpu_s : float;
  outcome : outcome;
}

type run = {
  w : workload;
  dep : deployment;
  client : client;
  digest : Sha256.t;  (** replies of rounds 1 .. 1 + digest_rounds *)
  mutable next_round : int;
  mutable samples : sample list;  (** newest first; warm-up excluded *)
}

let digested round = round <= 1 + digest_rounds

let digest_replies digest replies =
  Array.iter (Sha256.feed digest) replies

(* One round: build (untimed), the timed round call, then the check. *)
let step ?spans r =
  let w = r.w in
  let round = r.next_round in
  r.next_round <- round + 1;
  let chunks, build_cpu_s =
    cpu_timed (fun () ->
        Spans.opt spans ~name:"client.build" ~round (fun () -> r.client.build ~round))
  in
  let reference = reference_ms () in
  let cpu0 = server_cpu r.dep and b0, f0, c0 = r.dep.link () in
  let t0 = Clock.now_ms () in
  let result =
    Spans.opt spans ~name:"round" ~round (fun () ->
        r.dep.round ~round ~produce:(fun feed -> List.iter feed chunks))
  in
  let wall_ms = Clock.now_ms () -. t0 in
  let cpu1 = server_cpu r.dep and b1, f1, c1 = r.dep.link () in
  let outcome, check_cpu_s =
    cpu_timed (fun () ->
        match result with
        | Ok replies ->
            if digested round then digest_replies r.digest replies;
            Spans.opt spans ~name:"client.check" ~round (fun () ->
                r.client.check ~spans ~fetch:r.dep.fetch ~round replies)
        | Error st ->
            Format.eprintf "perfbench: %s round %d failed: %a@." w.name round
              Rpc.pp_status st;
            if digested round then
              Sha256.feed r.digest (Bytes.of_string "failed-round");
            { no_reads with failed = w.population })
  in
  {
    round;
    wall_ms;
    reference;
    server_cpu_s = Array.map2 ( -. ) cpu1 cpu0;
    link_bytes = b1 - b0;
    link_frames = f1 - f0;
    link_reconnects = c1 - c0;
    build_cpu_s;
    check_cpu_s;
    outcome;
  }

let pop_seed w seed = Printf.sprintf "perfbench/%s/population/%s" w.name seed
let server_seed w seed = Printf.sprintf "perfbench/%s/servers/%s" w.name seed

(* Deploy, create the population and run the warm-up round (round 1).
   Returns the run and the set-up time in seconds. *)
let setup w ~seed ~pool ~metrics =
  let t0 = Clock.now_ms () in
  let dep =
    match w.deploy with
    | Tcp -> tcp_deploy w ~seed:(server_seed w seed) ~metrics
    | In_process -> local_deploy w ~seed:(server_seed w seed)
  in
  let client = make_client w ~seed:(pop_seed w seed) ~pool ~pks:dep.pks in
  let r =
    { w; dep; client; digest = Sha256.init (); next_round = 1; samples = [] }
  in
  let warm = step r in
  if warm.outcome.failed > 0 then
    Printf.eprintf "perfbench: %s warm-up round failed %d requests\n%!" w.name
      warm.outcome.failed;
  (r, warm, (Clock.now_ms () -. t0) /. 1000.)

(* Timed rounds, back to back, for [seconds] (and at least until the
   digest is complete). *)
let timed_loop ?spans r ~seconds =
  let t_end = Clock.now_ms () +. (1000. *. seconds) in
  let failed_rounds = ref 0 in
  while
    (Clock.now_ms () < t_end || digested r.next_round) && !failed_rounds < 3
  do
    let s = step ?spans r in
    if s.outcome.failed >= r.w.population then incr failed_rounds;
    r.samples <- s :: r.samples
  done

let digest_hex r = Bytes_util.to_hex (Sha256.get r.digest)

(* ------------------------------------------------------------------ *)
(* The in-process replay                                               *)
(* ------------------------------------------------------------------ *)

(* Per-round server counters, from [Server.metrics]. *)
type counters = { peeled : int; invalid : int; duplicates : int; noise : int }

let counters srv =
  let m = Server.metrics srv in
  {
    peeled = m.Server.requests_in;
    invalid = m.Server.invalid_requests;
    duplicates = m.Server.duplicate_requests;
    noise = m.Server.noise_singles + (2 * m.Server.noise_pairs) + m.Server.noise_invitations;
  }

let sub_counters a b =
  {
    peeled = a.peeled - b.peeled;
    invalid = a.invalid - b.invalid;
    duplicates = a.duplicates - b.duplicates;
    noise = a.noise - b.noise;
  }

type replay = {
  r_digest : string;
  r_failed : int;
  r_attempted : int;
  r_counters : counters array list;  (** per measured round, per server *)
  r_rpc_bytes : int;  (** frame bytes over the measured rounds *)
  r_minor_words : float;
  r_major_collections : int;
  r_top_heap_mb : float;
  r_measured : int;  (** rounds after the warm-up *)
}

(* Replay rounds 1 .. 1 + digest_rounds of the seeded run on
   [Chain.server]s built with the deployment's settings, relaying every
   batch through [Rpc] part frames the way the daemons do: entry parts
   into server 0, [split_parts] between hops, one results frame per hop
   on the way back.  Every library call gets a span under the round's
   [replay.round] root. *)
let replay w ~seed ~pool ~spans =
  let chain =
    Chain.of_config (chain_config w ~seed:(server_seed w seed) ~jobs:(server_jobs w))
  in
  Fun.protect ~finally:(fun () -> Chain.shutdown chain) @@ fun () ->
  let srv i = Chain.server chain i in
  let m = dial_m w in
  let client =
    make_client w ~seed:(pop_seed w seed) ~pool ~pks:(Chain.public_keys chain)
  in
  let digest = Sha256.init () in
  let failed = ref 0 and measured = ref [] and rpc_bytes = ref 0 in
  let minor = ref 0. and major = ref 0 in
  let last = 1 + digest_rounds in
  for round = 1 to last do
    let chunks = client.build ~round in
    let sp name f = Spans.with_span spans ~name ~round f in
    let bytes = ref 0 in
    let encode msg =
      sp "rpc.encode" (fun () ->
          let b = Rpc.encode msg in
          bytes := !bytes + Bytes.length b;
          b)
    in
    let decode b =
      sp "rpc.decode" (fun () ->
          match Rpc.decode b with Ok msg -> msg | Error e -> failwith ("replay decode: " ^ e))
    in
    let part ~seq ~last onions =
      match w.kind with
      | Conv -> Rpc.Conv_batch_part { round; seq; last; onions }
      | Dial -> Rpc.Dial_batch_part { round; m; seq; last; onions }
    in
    let onions_of = function
      | Rpc.Conv_batch_part { onions; _ } | Rpc.Dial_batch_part { onions; _ } -> onions
      | _ -> failwith "replay: expected a batch part"
    in
    let results replies =
      match w.kind with
      | Conv -> Rpc.Conv_results { round; replies }
      | Dial -> Rpc.Dial_results { round; replies }
    in
    let replies_of = function
      | Rpc.Conv_results { replies; _ } | Rpc.Dial_results { replies; _ } -> replies
      | _ -> failwith "replay: expected a results frame"
    in
    let hop_back replies = replies_of (decode (encode (results replies))) in
    let rec down i parts =
      let s = srv i in
      let st =
        match w.kind with
        | Conv -> Server.conv_stream s ~round
        | Dial -> Server.dial_stream s ~round
      in
      let n_parts = List.length parts in
      List.iteri
        (fun seq onions ->
          let onions = onions_of (decode (encode (part ~seq ~last:(seq = n_parts - 1) onions))) in
          sp (Printf.sprintf "server%d.peel" i) (fun () -> Server.stream_feed s st onions))
        parts;
      if i = n_servers - 1 then
        match w.kind with
        | Conv ->
            sp (Printf.sprintf "server%d.exchange" i) (fun () ->
                Server.conv_finish_exchange s st)
        | Dial ->
            sp (Printf.sprintf "server%d.deliver" i) (fun () ->
                Server.dial_finish_deliver s st ~m)
      else begin
        let fwd =
          sp (Printf.sprintf "server%d.forward" i) (fun () ->
              match w.kind with
              | Conv -> Server.conv_finish_forward s st
              | Dial -> Server.dial_finish_forward s st ~m)
        in
        let parts = sp "rpc.encode" (fun () -> Rpc.split_parts ~chunk:chunk fwd) in
        let below = down (i + 1) (Array.to_list parts) in
        let up = hop_back below in
        sp (Printf.sprintf "server%d.backward" i) (fun () ->
            match w.kind with
            | Conv -> Server.conv_backward s ~round up
            | Dial -> Server.dial_backward s ~round up)
      end
    in
    let before = Array.init n_servers (fun i -> counters (srv i)) in
    let gc0 = Gc.quick_stat () in
    let replies =
      Spans.with_span spans ~name:"replay.round" ~round (fun () ->
          hop_back (down 0 chunks))
    in
    let gc1 = Gc.quick_stat () in
    let after = Array.init n_servers (fun i -> counters (srv i)) in
    if round > 1 then begin
      measured := Array.map2 sub_counters after before :: !measured;
      rpc_bytes := !rpc_bytes + !bytes;
      minor := !minor +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      major := !major + (gc1.Gc.major_collections - gc0.Gc.major_collections)
    end;
    digest_replies digest replies;
    let o =
      client.check ~spans:None
        ~fetch:(fun ~dial_round ~index -> Chain.fetch_invitations ~dial_round chain ~index)
        ~round replies
    in
    failed := !failed + o.failed
  done;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  {
    r_digest = Bytes_util.to_hex (Sha256.get digest);
    r_failed = !failed;
    r_attempted = w.population * last;
    r_counters = List.rev !measured;
    r_rpc_bytes = !rpc_bytes;
    r_minor_words = !minor;
    r_major_collections = !major;
    r_top_heap_mb = float_of_int (top * (Sys.word_size / 8)) /. 1048576.;
    r_measured = last - 1;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Names and units, in BENCHMARK.json order.  [--trace 0] prints the
   end-to-end set, [--trace 1] the per-layer set. *)
let end_to_end_metrics =
  [
    ("round_ms_p50", "ms");
    ("round_ms_tail", "ms");
    ("msgs_per_sec", "msg/s");
    ("server_cpu_us_per_msg", "us");
    ("client_cpu_us_per_msg", "us");
    ("server_rss_peak_mb", "MB");
    ("setup_s", "s");
  ]

let stages = [ "peel"; "noise"; "shuffle"; "exchange"; "reseal"; "unpeel" ]

let per_server f = List.concat_map f (List.init n_servers Fun.id)
let mixing f = List.concat_map f (List.init (n_servers - 1) Fun.id)

let per_layer_metrics =
  List.concat
    [
      [
        ("loadgen.build_us_per_onion", "us");
        ("loadgen.verify_us_per_msg", "us");
        ("dialing.build_us_per_request", "us");
        ("dialing.scan_us_per_invitation", "us");
        ("dialing.invitations_per_drop", "count");
      ];
      per_server (fun i ->
          [
            (Printf.sprintf "server%d.peel_ms" i, "ms");
            (Printf.sprintf "server%d.peel_us_per_onion" i, "us");
          ]);
      mixing (fun i -> [ (Printf.sprintf "server%d.forward_ms" i, "ms") ]);
      per_server (fun i -> [ (Printf.sprintf "server%d.noise_onions" i, "count") ]);
      [
        (Printf.sprintf "server%d.exchange_ms" (n_servers - 1), "ms");
        (Printf.sprintf "server%d.deliver_ms" (n_servers - 1), "ms");
      ];
      mixing (fun i -> [ (Printf.sprintf "server%d.backward_ms" i, "ms") ]);
      per_server (fun i ->
          [
            (Printf.sprintf "server%d.useful_ratio" i, "ratio");
            (Printf.sprintf "server%d.invalid" i, "count");
            (Printf.sprintf "server%d.duplicates" i, "count");
          ]);
      [
        ("rpc.encode_ms", "ms");
        ("rpc.decode_ms", "ms");
        ("rpc.bytes_per_msg", "bytes");
        ("link.bytes_per_msg", "bytes");
        ("link.frames_per_round", "count");
        ("link.reconnects", "count");
        ("remote.fetch_ms_per_drop", "ms");
      ];
      per_server (fun i ->
          [
            (Printf.sprintf "daemon%d.cpu_ms" i, "ms");
            (Printf.sprintf "daemon%d.idle_ms" i, "ms");
            (Printf.sprintf "daemon%d.transport_cpu_ms" i, "ms");
          ]);
      per_server (fun i ->
          List.map (fun st -> (Printf.sprintf "daemon%d.stage.%s_ms" i st, "ms")) stages);
      [
        ("gc.minor_mwords_per_round", "Mwords");
        ("gc.major_collections_per_round", "count");
        ("gc.top_heap_mb", "MB");
        ("replay.round_ms", "ms");
        ("replay.uncovered_ms", "ms");
        ("trace.overhead_ms", "ms");
        ("failed_ratio", "ratio");
      ];
    ]

let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0. then 0. else a /. b

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* The highest percentile with at least 10 rounds beyond it: the 11th
   largest round, with the percentile it stands for and the sample
   count.  Fewer than 11 rounds: the fastest round, at percentile 0. *)
let tail walls =
  let a = Array.of_list (List.sort compare walls) in
  let k = Array.length a in
  if k = 0 then (0., 0., 0)
  else if k < 11 then (a.(0), 0., k)
  else (a.(k - 11), 100. *. float_of_int (k - 10) /. float_of_int k, k)

let timed_samples r = List.rev r.samples
let cpu_total s = Array.fold_left ( +. ) 0. s.server_cpu_s

(* The run's host-speed factors, (wall, CPU): reference_nominal_ms over
   the median wall and CPU time of the reference loop before each timed
   round. *)
let speed_factors r =
  let refs = List.map (fun s -> s.reference) (timed_samples r) in
  ( ratio reference_nominal_ms (median (List.map fst refs)),
    ratio reference_nominal_ms (median (List.map snd refs)) )

(* End-to-end metrics as measured, then with the wall figures scaled by
   the run's wall factor and the CPU figures by its CPU factor (RSS
   unscaled). *)
let end_to_end r ~setup_times ~rss =
  let s = timed_samples r in
  let msgs = float_of_int (r.w.population * List.length s) in
  let walls = List.map (fun s -> s.wall_ms) s in
  let tail_ms, _, _ = tail walls in
  let raw =
    [
      ("round_ms_p50", median walls);
      ("round_ms_tail", tail_ms);
      ( "msgs_per_sec",
        ratio (float_of_int (sumi (fun s -> s.outcome.delivered) s)) (sumf (fun s -> s.wall_ms) s /. 1000.) );
      ("server_cpu_us_per_msg", ratio (1e6 *. sumf cpu_total s) msgs);
      ("client_cpu_us_per_msg", ratio (1e6 *. sumf (fun s -> s.build_cpu_s +. s.check_cpu_s) s) msgs);
      ("server_rss_peak_mb", rss);
      ("setup_s", median setup_times);
    ]
  in
  let k_wall, k_cpu = speed_factors r in
  let scaled =
    List.map
      (fun (name, v) ->
        match name with
        | "msgs_per_sec" -> (name, v /. k_wall)
        | "server_cpu_us_per_msg" | "client_cpu_us_per_msg" -> (name, v *. k_cpu)
        | "server_rss_peak_mb" -> (name, v)
        | _ -> (name, v *. k_wall))
      raw
  in
  (raw, scaled)

(* Per-round mean duration of the replay spans named [name], over the
   rounds after the warm-up. *)
let span_ms spans ~measured name =
  ratio
    (sumf
       (fun (s : Spans.span) -> if s.name = name && s.round > 1 then Spans.dur s else 0.)
       spans)
    (float_of_int measured)

(* The add-up gate: a replay round's layer spans (the root's children)
   must cover its wall-clock time to within [addup_tolerance].  Returns
   (mean round ms, mean uncovered ms, pass). *)
let addup spans =
  let roots =
    List.filter (fun (s : Spans.span) -> s.name = "replay.round" && s.round > 1) spans
  in
  let covered (root : Spans.span) =
    sumf (fun (s : Spans.span) -> if s.parent = root.id then Spans.dur s else 0.) spans
  in
  let total = sumf Spans.dur roots in
  let uncovered = sumf (fun r -> Spans.dur r -. covered r) roots in
  let k = float_of_int (max 1 (List.length roots)) in
  (total /. k, uncovered /. k, Float.abs uncovered <= addup_tolerance *. total)

let per_layer w ~untraced ~instrumented ~stage_sums ~replay:rp ~replay_spans
    ~failed_ratio =
  let n = float_of_int w.population in
  let s = timed_samples instrumented in
  let rounds = float_of_int (max 1 (List.length s)) in
  let msgs = n *. rounds in
  let conv = w.kind = Conv in
  let build_us = ratio (1e6 *. sumf (fun s -> s.build_cpu_s) s) msgs in
  let check_us = ratio (1e6 *. sumf (fun s -> s.check_cpu_s) s) msgs in
  let measured = rp.r_measured in
  let sms = span_ms replay_spans ~measured in
  let last = n_servers - 1 in
  let server_sum i =
    List.fold_left
      (fun a l -> a +. sms (Printf.sprintf "server%d.%s" i l))
      0.
      [ "peel"; "forward"; "exchange"; "deliver"; "backward" ]
  in
  let mean_counter f i =
    ratio
      (float_of_int (sumi (fun c -> f c.(i)) rp.r_counters))
      (float_of_int (max 1 measured))
  in
  let has_daemons = Array.length instrumented.dep.pids > 0 in
  let daemon_cpu_ms ?(upto = max_int) i =
    if not has_daemons then 0.
    else
      let s = List.filter (fun s -> s.round <= upto) s in
      ratio (1000. *. sumf (fun s -> s.server_cpu_s.(i)) s) (float_of_int (List.length s))
  in
  let p50 r = median (List.map (fun s -> s.wall_ms) (timed_samples r)) in
  let round_ms, uncovered_ms, _ = addup replay_spans in
  let fetches = sumi (fun s -> s.outcome.drops) s in
  List.concat
    [
      [
        ("loadgen.build_us_per_onion", if conv then build_us else 0.);
        ("loadgen.verify_us_per_msg", if conv then check_us else 0.);
        ("dialing.build_us_per_request", if conv then 0. else build_us);
        ( "dialing.scan_us_per_invitation",
          ratio (1e6 *. sumf (fun s -> s.outcome.scan_cpu_s) s)
            (float_of_int (sumi (fun s -> s.outcome.scanned) s)) );
        ( "dialing.invitations_per_drop",
          ratio (float_of_int (sumi (fun s -> s.outcome.drop_invitations) s)) (float_of_int fetches) );
      ];
      per_server (fun i ->
          let peel = sms (Printf.sprintf "server%d.peel" i) in
          [
            (Printf.sprintf "server%d.peel_ms" i, peel);
            ( Printf.sprintf "server%d.peel_us_per_onion" i,
              ratio (1000. *. peel) (mean_counter (fun c -> c.peeled) i) );
          ]);
      mixing (fun i ->
          [ (Printf.sprintf "server%d.forward_ms" i, sms (Printf.sprintf "server%d.forward" i)) ]);
      per_server (fun i ->
          [ (Printf.sprintf "server%d.noise_onions" i, mean_counter (fun c -> c.noise) i) ]);
      [
        (Printf.sprintf "server%d.exchange_ms" last, sms (Printf.sprintf "server%d.exchange" last));
        (Printf.sprintf "server%d.deliver_ms" last, sms (Printf.sprintf "server%d.deliver" last));
      ];
      mixing (fun i ->
          [ (Printf.sprintf "server%d.backward_ms" i, sms (Printf.sprintf "server%d.backward" i)) ]);
      per_server (fun i ->
          [
            ( Printf.sprintf "server%d.useful_ratio" i,
              ratio n (mean_counter (fun c -> c.peeled) i) );
            (Printf.sprintf "server%d.invalid" i, mean_counter (fun c -> c.invalid) i);
            (Printf.sprintf "server%d.duplicates" i, mean_counter (fun c -> c.duplicates) i);
          ]);
      [
        ("rpc.encode_ms", sms "rpc.encode");
        ("rpc.decode_ms", sms "rpc.decode");
        ("rpc.bytes_per_msg", ratio (float_of_int rp.r_rpc_bytes) (n *. float_of_int measured));
        ("link.bytes_per_msg", ratio (float_of_int (sumi (fun s -> s.link_bytes) s)) msgs);
        ("link.frames_per_round", ratio (float_of_int (sumi (fun s -> s.link_frames) s)) rounds);
        ("link.reconnects", float_of_int (sumi (fun s -> s.link_reconnects) s));
        ( "remote.fetch_ms_per_drop",
          ratio (sumf (fun s -> s.outcome.fetch_ms) s) (float_of_int fetches) );
      ];
      per_server (fun i ->
          let cpu = daemon_cpu_ms i in
          let idle =
            if has_daemons then
              ratio (sumf (fun s -> s.wall_ms -. (1000. *. s.server_cpu_s.(i))) s) rounds
            else 0.
          in
          let transport =
            if has_daemons then daemon_cpu_ms ~upto:(1 + digest_rounds) i -. server_sum i
            else 0.
          in
          [
            (Printf.sprintf "daemon%d.cpu_ms" i, cpu);
            (Printf.sprintf "daemon%d.idle_ms" i, idle);
            (Printf.sprintf "daemon%d.transport_cpu_ms" i, transport);
          ]);
      per_server (fun i ->
          let sums = if i < Array.length stage_sums then stage_sums.(i) else [] in
          let daemon_rounds = float_of_int (instrumented.next_round - 1) in
          List.map
            (fun st ->
              ( Printf.sprintf "daemon%d.stage.%s_ms" i st,
                ratio (Option.value (List.assoc_opt st sums) ~default:0.) daemon_rounds ))
            stages);
      [
        ("gc.minor_mwords_per_round", ratio (rp.r_minor_words /. 1e6) (float_of_int measured));
        ( "gc.major_collections_per_round",
          ratio (float_of_int rp.r_major_collections) (float_of_int measured) );
        ("gc.top_heap_mb", rp.r_top_heap_mb);
        ("replay.round_ms", round_ms);
        ("replay.uncovered_ms", uncovered_ms);
        ("trace.overhead_ms", p50 instrumented -. p50 untraced);
        ("failed_ratio", failed_ratio);
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Provenance and output                                               *)
(* ------------------------------------------------------------------ *)

(* The commit checked out, read from .git directly (no git process, no
   search above the working directory); "unknown" outside a clone. *)
let git_rev () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      let prefix = "ref: " in
      let pl = String.length prefix in
      if String.length head <= pl || String.sub head 0 pl <> prefix then head
      else
        let ref_ = String.sub head pl (String.length head - pl) in
        match read_file (Filename.concat ".git" ref_) with
        | Some rev -> trim rev
        | None -> (
            match read_file ".git/packed-refs" with
            | None -> "unknown"
            | Some packed ->
                List.fold_left
                  (fun acc line ->
                    match String.split_on_char ' ' line with
                    | [ rev; r ] when r = ref_ -> rev
                    | _ -> acc)
                  "unknown"
                  (String.split_on_char '\n' packed)))

let host_cores () =
  match Unix.open_process_in "nproc 2>/dev/null" with
  | exception Unix.Unix_error _ -> nproc
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      Option.value (Option.bind line (fun l -> int_of_string_opt (String.trim l))) ~default:nproc

let utc_now () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let num f = Json.Num f
let int_num i = Json.Num (float_of_int i)

let parameters w =
  Json.Obj
    [
      ("workload", Json.Str w.name);
      ("kind", Json.Str (match w.kind with Conv -> "conversation" | Dial -> "dialing"));
      ( "transport",
        Json.Str (match w.deploy with Tcp -> "loopback" | In_process -> "in-process") );
      ("population", int_num w.population);
      ("mu", num w.mu);
      ("b", num w.b);
      ("noise_mode", Json.Str "deterministic");
      ("dial_mu", num w.dial_mu);
      ("dial_b", num w.dial_b);
      ("dial_fraction", num w.dial_fraction);
      ("dial_real_invitations", int_num (if w.kind = Dial then dial_real w else 0));
      ("dial_drops_m", int_num (if w.kind = Dial then dial_m w else 0));
      ("servers", int_num n_servers);
      ("deaddrop_shards", int_num shards);
      ("chunk", int_num chunk);
      ("daemon_jobs", int_num daemon_jobs);
      ("chain_jobs", int_num chain_jobs);
      ("pool_jobs", int_num pool_jobs);
      ("digest_rounds", int_num digest_rounds);
    ]

let metrics_json table units =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         ( name,
           Json.Obj
             [ ("value", num (List.assoc name table)); ("unit", Json.Str unit) ] ))
       units)

(* A JSON number with all its digits. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let print_result ~correct ~attempted ~failed table units =
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-34s %16.4f %s\n" name (List.assoc name table) unit)
    units;
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_float (List.assoc name table))
             unit)
         units)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed metrics

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let warm_failed (warm : sample) = warm.outcome.failed

(* Attempted and failed requests over the timed rounds and the warm-up. *)
let counts r warm =
  let s = timed_samples r in
  ( r.w.population * (List.length s + 1),
    warm_failed warm + sumi (fun s -> s.outcome.failed) s )

let round_lines r =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("round", int_num s.round);
             ("wall_ms", num s.wall_ms);
             ( "reference_wall_cpu_ms",
               let w, c = s.reference in
               Json.List [ num w; num c ] );
             ("server_cpu_s", Json.List (Array.to_list (Array.map num s.server_cpu_s)));
             ("client_cpu_s", num (s.build_cpu_s +. s.check_cpu_s));
             ("failed", int_num s.outcome.failed);
           ])
       (timed_samples r))

(* [setups] set-ups; the last one's deployment runs the timed loop. *)
let untraced_run w ~seed ~pool ~seconds ~results =
  let setup_times = ref [] in
  for _ = 2 to setups do
    let r, _, t = setup w ~seed ~pool ~metrics:false in
    r.dep.close ();
    setup_times := t :: !setup_times
  done;
  let r, warm, t = setup w ~seed ~pool ~metrics:false in
  setup_times := t :: !setup_times;
  Fun.protect ~finally:(fun () -> r.dep.close ()) @@ fun () ->
  timed_loop r ~seconds;
  let rss = server_rss_mb r.dep in
  let raw, table = end_to_end r ~setup_times:!setup_times ~rss in
  let attempted, failed = counts r warm in
  let walls = List.map (fun s -> s.wall_ms) (timed_samples r) in
  let _, pct, k = tail walls in
  Printf.printf "perfbench %s seed=%s: %d timed rounds of %d requests, digest %s\n" w.name seed
    (List.length walls) w.population (digest_hex r);
  Printf.printf "  round_ms_tail is the p%.1f of %d rounds\n" pct k;
  Printf.printf "  %-34s %16.6f ratio\n" "failed_ratio"
    (ratio (float_of_int failed) (float_of_int attempted));
  let k_wall, k_cpu = speed_factors r in
  Printf.printf "  as measured, before the host-speed factors (wall %.4f, CPU %.4f):\n" k_wall k_cpu;
  List.iter
    (fun (name, unit) -> Printf.printf "    raw %-30s %16.4f %s\n" name (List.assoc name raw) unit)
    end_to_end_metrics;
  Printf.printf "  scaled to a %.1f ms reference loop:\n" reference_nominal_ms;
  results
    (Json.Obj
       [
         ("metrics", metrics_json table end_to_end_metrics);
         ("raw_metrics", metrics_json raw end_to_end_metrics);
         ("reference_nominal_ms", num reference_nominal_ms);
         ("speed_factor_wall", num k_wall);
         ("speed_factor_cpu", num k_cpu);
         ("round_ms_tail_percentile", num pct);
         ("round_ms_tail_samples", int_num k);
         ("setup_s_samples", Json.List (List.map num !setup_times));
         ("attempted", int_num attempted);
         ("failed", int_num failed);
         ("reply_digest", Json.Str (digest_hex r));
         ("rounds", round_lines r);
       ]);
  print_result ~correct:(failed = 0) ~attempted ~failed table end_to_end_metrics

(* The untraced and instrumented deployments get half the run each. *)
let traced_run w ~seed ~pool ~seconds ~results ~spans_path =
  let seconds = seconds /. 2. in
  (* 1. untraced, for the digest and the tracing overhead *)
  let untraced, warm_u, _ = setup w ~seed ~pool ~metrics:false in
  Fun.protect ~finally:(fun () -> untraced.dep.close ()) (fun () ->
      timed_loop untraced ~seconds);
  (* 2. instrumented deployment *)
  let spans_i = Spans.create () in
  let instrumented, warm_i, _ = setup w ~seed ~pool ~metrics:true in
  let stage_sums =
    Fun.protect ~finally:(fun () -> instrumented.dep.close ()) (fun () ->
        timed_loop ~spans:spans_i instrumented ~seconds;
        Array.map scrape_stage_sums instrumented.dep.metrics_addrs)
  in
  (* 3. in-process replay *)
  let spans_r = Spans.create () in
  let rp = replay w ~seed ~pool ~spans:spans_r in
  let replay_spans = Spans.spans spans_r in
  let _, _, addup_ok = addup replay_spans in
  let d_u = digest_hex untraced and d_i = digest_hex instrumented in
  let digests_agree = d_u = d_i && d_i = rp.r_digest in
  let a_u, f_u = counts untraced warm_u and a_i, f_i = counts instrumented warm_i in
  let mismatch =
    if digests_agree then 0 else w.population * (1 + digest_rounds)
  in
  let attempted = a_u + a_i + rp.r_attempted in
  let failed = f_u + f_i + rp.r_failed + mismatch in
  let failed_ratio = ratio (float_of_int failed) (float_of_int attempted) in
  let table =
    per_layer w ~untraced ~instrumented ~stage_sums ~replay:rp ~replay_spans
      ~failed_ratio
  in
  Printf.printf "perfbench %s seed=%s traced: digests untraced=%s instrumented=%s replay=%s (%s)\n"
    w.name seed d_u d_i rp.r_digest
    (if digests_agree then "agree" else "MISMATCH");
  Printf.printf "  add-up gate: uncovered %.3f ms of %.3f ms per replay round (bound %.0f%%): %s\n"
    (List.assoc "replay.uncovered_ms" table) (List.assoc "replay.round_ms" table)
    (100. *. addup_tolerance)
    (if addup_ok then "pass" else "FAIL");
  let margin =
    List.fold_left (fun a s -> min a s.outcome.noise_margin) max_int (timed_samples instrumented)
  in
  if w.kind = Dial then
    Printf.printf "  dial noise minus real invitations, worst drop: %d\n" margin;
  write_file spans_path (Spans.to_jsonl spans_i ^ Spans.to_jsonl spans_r);
  results
    (Json.Obj
       [
         ("metrics", metrics_json table per_layer_metrics);
         ( "reply_digests",
           Json.Obj
             [
               ("untraced", Json.Str d_u);
               ("instrumented", Json.Str d_i);
               ("replay", Json.Str rp.r_digest);
             ] );
         ("digests_agree", Json.Bool digests_agree);
         ("addup_tolerance", num addup_tolerance);
         ("addup_pass", Json.Bool addup_ok);
         ("dial_noise_margin", int_num (if w.kind = Dial then margin else 0));
         ("attempted", int_num attempted);
         ("failed", int_num failed);
         ("untraced_rounds", round_lines untraced);
         ("instrumented_rounds", round_lines instrumented);
         ("spans", Json.Str spans_path);
       ]);
  print_result
    ~correct:(failed = 0 && digests_agree && addup_ok)
    ~attempted ~failed table per_layer_metrics

(* The seed is kept as its decimal text, so any integer is accepted. *)
let is_integer s =
  let n = String.length s in
  let digits = if n > 0 && s.[0] = '-' then String.sub s 1 (n - 1) else s in
  digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits

let () =
  let workload = ref "" and seed = ref "1" and seconds = ref 10. and trace = ref 0 in
  let population = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workload_names);
      ( "--seed",
        Arg.Set_string seed,
        "N input seed, any integer (population and servers derive from it)" );
      ("--seconds", Arg.Set_float seconds, "S how long the timed loop runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--population", Arg.Set_int population, "N override the workload's population");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let population = if !population > 0 then Some !population else None in
  if not (is_integer !seed) then begin
    prerr_endline ("perfbench: --seed expects an integer, not " ^ !seed);
    exit 2
  end;
  match workload_of_name ?population !workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some w ->
      if w.deploy = Tcp && not (Sys.file_exists (server_bin ())) then begin
        prerr_endline ("perfbench: daemon binary missing: " ^ server_bin ());
        exit 2
      end;
      let pool = if pool_jobs > 1 then Some (Pool.create ~jobs:pool_jobs) else None in
      let stem =
        Filename.concat results_dir
          (Printf.sprintf "%s-seed%s-trace%d" w.name !seed !trace)
      in
      let results body =
        let provenance =
          [
            ("schema", num 1.);
            ("benchmark", Json.Str "perfbench");
            ("git_rev", Json.Str (git_rev ()));
            ("date", Json.Str (utc_now ()));
            ("host_cores", int_num (host_cores ()));
            ("ocaml_version", Json.Str Sys.ocaml_version);
            ("seed", Json.Str !seed);
            ("seconds", num !seconds);
            ("trace", int_num !trace);
            ("parameters", parameters w);
          ]
        in
        let body = match body with Json.Obj l -> l | j -> [ ("body", j) ] in
        write_file (stem ^ ".json") (Json.to_string (Json.Obj (provenance @ body)) ^ "\n")
      in
      Fun.protect
        ~finally:(fun () -> Option.iter Pool.shutdown pool)
        (fun () ->
          if !trace = 0 then
            untraced_run w ~seed:!seed ~pool ~seconds:!seconds ~results
          else
            traced_run w ~seed:!seed ~pool ~seconds:!seconds ~results
              ~spans_path:(stem ^ "-spans.jsonl"))
