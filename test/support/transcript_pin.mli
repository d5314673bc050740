(** The seeded wire-transcript fixture, shared between the alcotest
    suite (in-process chain) and the loopback-TCP deployment test
    ([test/net]): one digest computation, two backends, so "the TCP
    chain is bit-identical to the in-process chain" is checked against
    literally the same bytes. *)

type backend = {
  pks : bytes list;
  conversation_round : round:int -> bytes array -> bytes array;
      (** must raise on failure *)
  dialing_round : round:int -> m:int -> bytes array -> bytes array;
}

val seed : string
(** The deployment seed ["transcript-pin"]; servers use the standard
    per-position derivation from it. *)

val n_servers : int
val noise : Vuvuzela_dp.Laplace.params
val dial_noise : Vuvuzela_dp.Laplace.params
(** Chain parameters every backend must use ([Deterministic] noise). *)

type row = { jobs : int; part : int option; shards : int }
(** One engine setting: worker domains, part size ([None]: each batch
    is one part) and dead-drop shards. *)

val rows : row list
(** The matrix every backend must pin: jobs {1, 4} × part size
    {whole batch, 1, 4, 16} × shards {1, 4}. *)

val row_label : row -> string

val streamed :
  pks:bytes list ->
  ?part:int ->
  conv:
    (round:int ->
    produce:((bytes array -> unit) -> unit) ->
    (bytes array, Vuvuzela.Rpc.status) result) ->
  dial:
    (round:int ->
    m:int ->
    produce:((bytes array -> unit) -> unit) ->
    (bytes array, Vuvuzela.Rpc.status) result) ->
  unit ->
  backend
(** A backend over a chain's round calls: each batch is fed in chunks
    of [part] onions (one chunk without it); a status raises. *)

val in_process :
  ?telemetry:Vuvuzela_telemetry.Telemetry.t ->
  ?jobs:int ->
  ?part:int ->
  ?deaddrop_shards:int ->
  unit ->
  backend * (unit -> unit)
(** The reference backend: [Chain.of_config] with [seed]; the thunk
    shuts the chain down.  [jobs], [part] (the part size, entry and
    relays alike), [deaddrop_shards] (the sharded store) and
    [telemetry] (a live observability sink) must never change the
    digests — that is the point of pinning them. *)

val conv_digest : backend -> string
(** SHA-256 (hex) over: server public keys, then rounds 1..3 — every
    request onion, then every reply blob, in slot order — from 4 seeded
    clients in two conversing pairs. *)

val full_digest : backend -> string
(** [conv_digest]'s schedule followed by dialing round 1 (m = 1):
    requests, then acks, fed to the same hash. *)

val digests : backend -> string * string
(** [(conv_digest, full_digest)] from one run of the schedule. *)

val pinned_conv_digest : string
(** Captured from the seed implementation; {!conv_digest} of any
    backend must equal it forever. *)

val pinned_full_digest : string
(** Captured when the dialing-inclusive pin was introduced. *)
