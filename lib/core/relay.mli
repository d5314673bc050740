(** One chain server's hop: the frame-driven state machine around
    Algorithm 2 that both deployments run.

    A relay wraps one {!Server}.  It takes one frame at a time — from
    its upstream peer (the entry, or the previous server) or from its
    downstream peer (the next server) — and returns the frames to send
    on and the fault effects to apply.  It owns every hop rule:

    - part sequencing: a round's batch arrives as [*_batch_part] frames
      in [seq] order and is peeled part by part; a gap is a typed
      [Status] and drops the round's stream;
    - stale-round supersede: part 0 of another round replaces the
      stream in flight, whose later parts are then ignored;
    - faults: the plan entries of this (round, server) site fire once,
      at part 0, against the logical batch.  A lost batch (crash, drop,
      partition) swallows every later part of the round; frame faults
      damage part 0's frame before it is decoded; [Tamper_slot] flips
      the onion at its absolute slot in whichever part carries it (a
      batch sent as one part wraps larger slots modulo its size);
    - the tap, once per ingress part, after faults;
    - the exchange barrier: the last server answers once the last part
      is in; a mixing server forwards its shuffled batch downstream in
      parts of [chunk] onions (one part without [chunk]);
    - [Abort] (forwarded, frees the stream, drops the server's round
      state) and [Fetch_drop] (forwarded to, and answered by, the last
      server).

    The relay never touches a socket or a clock.  Its two shells are
    {!Chain} (n relays joined by in-memory links that push every frame
    through the {!Rpc} codec) and {!Daemon} (one relay inside a TCP
    connection shell). *)

type t

val create :
  ?faults:Vuvuzela_faults.Fault.injector ->
  ?tap:(round:int -> server:int -> bytes array -> unit) ->
  ?telemetry:Vuvuzela_telemetry.Telemetry.t ->
  ?chunk:int ->
  index:int ->
  Server.t ->
  t
(** The relay of the server at chain position [index].  [faults] fire
    at this relay's incoming link (plan entries naming [server =
    index]); [telemetry] counts and annotates fired faults
    ([vuvuzela_faults_injected_total{kind}] and friends); [chunk]
    (clamped ≥ 1) is the forward part size. *)

val server : t -> Server.t

type output = {
  up : Rpc.message list;  (** frames for the upstream peer, in order *)
  down : Rpc.message list;
      (** frames for the downstream peer, in order; always [[]] at the
          last server *)
  fired : Vuvuzela_faults.Fault.kind list;
      (** faults that fired at this frame, in plan order *)
  stall_ms : int;
      (** link stall the fired faults impose ([Delay_ms], [Slow_link],
          [Flap], [Partition]): in-process it is virtual round time, over
          TCP the process sleeps *)
  reset : bool;
      (** crash, flap or partition: over TCP the upstream connection
          resets; in-process there is no socket to reset *)
  lost : Rpc.status option;
      (** the batch never arrived (crash, drop, partition).  Over TCP
          that is silence; in-process it becomes this typed status *)
  finished : bool;
      (** this hop's work for a round ended here (answer, status, loss
          or abort sent): a shell may close its per-round span *)
}

val upstream : t -> raw:bytes -> Rpc.message -> output
(** One frame from the upstream peer, decoded from [raw] (which frame
    faults mutate and decode again).  Frames other than parts, [Abort]
    and [Fetch_drop] are ignored. *)

val downstream : t -> Rpc.message -> output
(** One frame from the downstream peer: results are unshuffled and
    resealed on their way up (results for an unknown round become a
    [Status]); statuses and drop contents pass through. *)

val inflight : t -> (int * bool) option
(** The (round, dialing) forwarded downstream whose results are still
    owed. *)

val downstream_lost : t -> output
(** The downstream link is gone for good: the in-flight round, if any,
    is answered upstream with a ["downstream link lost"] status. *)

(** {2 Entry side} *)

val request_len : chain_len:int -> dial_kind:Dialing.kind -> dialing:bool -> int
(** Size of a client request onion entering a chain of [chain_len]. *)

val entry :
  chain_len:int ->
  dial_kind:Dialing.kind ->
  ?m:int ->
  round:int ->
  produce:((bytes array -> unit) -> unit) ->
  (Rpc.message -> unit) ->
  unit
(** The entry server's side of a round ([m]: a dialing round): every
    chunk [produce] feeds becomes one part frame for server 0, sent
    with one chunk of lookahead so the final part carries [last].  A
    wrong-sized request is replaced with random bytes of the right size
    (its slot and reply survive; the garbage fails authentication at
    server 0).  Zero chunks send one empty last part. *)
