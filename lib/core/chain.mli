(** The chain of Vuvuzela servers and in-process round orchestration:
    one {!Relay} per server, joined by in-memory links that push every
    frame through the {!Rpc} codec — the TCP chain without sockets. *)

type t

val of_config : Config.t -> t
(** Build a chain from a {!Config.t}.  With [seed] the whole deployment
    (keys, noise, shuffles) is deterministic, for tests.  [jobs] sets
    the domain count for the per-onion crypto; the servers share one
    pool.  [pipeline] sets the forward part size between servers
    ([pipeline_chunk] onions per part; otherwise the whole batch is one
    part).  Round results are bit-identical at any job count and any
    part size.

    [fault_plan] arms deterministic fault injection at the relays'
    incoming links (each fault fires once at its (round, server) site,
    at the round's part 0, against the whole logical batch); a stall
    adds to {!last_round_delay_ms} and a lost batch becomes a typed
    status.  [tap] observes every ingress part exactly as the receiving
    server gets it — after any fault — so tests can assert wire-level
    invariants such as "no onion ciphertext crosses twice".

    [telemetry] (default: the nil sink) is shared with every server: each
    round gets a root span ([conv-round] / [dial-round]) with the
    per-stage server spans beneath it, and fired faults are counted
    ([vuvuzela_faults_injected_total{kind}], with [Delay_ms] stall also
    accumulated into [vuvuzela_injected_delay_ms_total]) and annotated
    on the innermost open span.  Instrumentation never draws from the
    RNG — rounds are bit-identical with telemetry on or off.
    @raise Invalid_argument on [n_servers < 1] or [jobs < 1]. *)

val length : t -> int
val server : t -> int -> Server.t

val jobs : t -> int
(** The chain's configured degree of parallelism. *)

val shutdown : t -> unit
(** Join the shared worker domains, if any, and mark the chain finished.
    Idempotent.  Rounds attempted afterwards return the typed
    {!Rpc.chain_shutdown} status instead of silently running
    sequentially on servers whose pool is gone. *)

val is_shut_down : t -> bool

val last_round_delay_ms : t -> float
(** Virtual link stall accumulated by [Delay_ms] (and the other stall)
    faults during the most recent round (0 when none fired).  The
    supervisor adds this to the measured wall-clock time before its
    deadline check, so deadline misses are deterministic under a fixed
    seed. *)

val pending_faults : t -> int
(** Scheduled faults that have not fired yet (0 without a fault plan). *)

val public_keys : t -> bytes list
(** In chain order; clients wrap onions against these. *)

val conversation_round_streamed :
  t ->
  round:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result
(** Run a complete conversation round: [produce feed] pushes the batch
    as slot-ordered chunks (a streaming {!Entry} collector's sink) and
    returns when the intake is complete.  Each chunk enters server 0 as
    one part frame and is peeled as it lands.  The result array is
    slot-aligned with the chunk concatenation, bit-identically at any
    chunking.  [Error] carries the typed status of the first hop that
    failed. *)

val dialing_round_streamed :
  t ->
  round:int ->
  m:int ->
  produce:((bytes array -> unit) -> unit) ->
  (bytes array, Rpc.status) result

val conversation_round_exn : t -> round:int -> bytes array -> bytes array
(** A round whose whole batch is one chunk, raising [Failure] on a
    status. *)

val dialing_round_exn : t -> round:int -> m:int -> bytes array -> bytes array

val fetch_invitations : ?dial_round:int -> t -> index:int -> bytes list
(** Straight from the last server.  Defaults to the most recent dialing
    round's store; [?dial_round] reaches any round inside the last
    server's retention window. *)

val abort : t -> round:int -> dialing:bool -> unit
(** Discard a failed round's state on every server (an [Abort] frame
    forwarded hop to hop), so the supervisor's retry (under a fresh
    round number, with freshly drawn noise) starts clean.  A dialing
    abort also discards the round's invitation store. *)

val proposed_m : t -> int
(** The last server's recommended invitation-drop count (§5.4). *)

val observed_histogram : t -> Deaddrop.histogram option
(** The last server's (i.e. the adversary's) view of the latest
    conversation round. *)
