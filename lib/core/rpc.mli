(** The inter-server wire protocol: framed messages between clients, the
    entry server, and the chain (§3.1 round coordination, §7
    architecture).  Versioned, fixed-item-size batches. *)

type status = {
  round : int;
  server : int;  (** chain position reporting the failure *)
  stage : string;  (** which link/message failed, e.g. ["conv-batch"] *)
  detail : string;
}
(** A typed error frame: sent in place of the results a server cannot
    produce (framing violation, size mismatch, protocol error), so
    failures cross the wire as first-class messages instead of killing
    the connection. *)

type message =
  | Conv_results of { round : int; replies : bytes array }
  | Dial_results of { round : int; replies : bytes array }
  | Fetch_drop of { dial_round : int; index : int }
  | Drop_contents of {
      dial_round : int;
      index : int;
      invitations : bytes list;
    }
  | Status of status
  | Hello of { index : int }
      (** transport handshake, dialer → listener: the dialer's chain
          position ([-1] for the coordinator/entry process) *)
  | Chain_info of { pks : bytes list }
      (** handshake reply: the listener's public key followed by its
          whole downstream suffix, in chain order — key material
          propagates up a multi-process chain one handshake at a time *)
  | Abort of { round : int; dialing : bool }
      (** discard this round's state everywhere; forwarded hop to hop
          ahead of the supervisor's retry *)
  | Bye  (** graceful chain shutdown, forwarded hop to hop *)
  | Conv_batch_part of {
      round : int;
      seq : int;
      last : bool;
      onions : bytes array;
    }
      (** the only forward framing: one contiguous chunk of a round's
          batch, sent as soon as the upstream hop has produced it.
          Parts of a round arrive in [seq] order on a single ordered
          link; [last = true] closes the batch.  An unpipelined hop
          sends its whole batch as one part; concatenating a round's
          parts yields the same batch at any part size, which is why
          every part size is bit-identical. *)
  | Dial_batch_part of {
      round : int;
      m : int;
      seq : int;
      last : bool;
      onions : bytes array;
    }  (** a dialing round's part; [m] repeats on every part *)
  | Trace_ctx of { ctx : bytes }
      (** observability control frame (tag 16), sent immediately before
          a batch: an opaque {!Vuvuzela_telemetry.Trace.context} blob
          naming the sender's open span, so the receiver's hop span can
          parent into it across the process boundary.  Backward
          compatible by construction — peers that never send it lose
          only the cross-process parent link, and a malformed blob is
          ignored (never aborts a round). *)

val encode : message -> bytes
(** @raise Vuvuzela_mixnet.Wire.Error on ragged batches. *)

val decode : bytes -> (message, string) result
(** Rejects bad magic, unknown versions/tags, absurd counts, and
    truncated or trailing bytes. *)

val equal_message : message -> message -> bool

val split_parts : chunk:int -> bytes array -> bytes array array
(** Split a logical batch into the ≤[chunk]-sized contiguous slices a
    hop ships as part frames ([chunk] clamped ≥ 1).  An empty batch
    yields one empty part, so every round is closed by a [last = true]
    frame. *)

val part :
  ?m:int -> round:int -> seq:int -> last:bool -> bytes array -> message
(** A [Conv_batch_part], or a [Dial_batch_part] when [m] is given. *)

val results : dialing:bool -> round:int -> bytes array -> message
(** [Conv_results] or [Dial_results]. *)

val part_bytes : dialing:bool -> count:int -> item_len:int -> int
(** Exact wire size of one part frame carrying [count] items, for
    bandwidth accounting. *)

val pp_status : Format.formatter -> status -> unit

(** {2 Coordinator statuses}

    Abort reasons that originate at the round supervisor rather than on
    a link, sharing the [status] type so reports and retry policies are
    uniform. *)

val chain_shutdown : round:int -> status
(** A round was attempted after {!Chain.shutdown} (stage
    ["chain-shutdown"]). *)

val deadline_exceeded : round:int -> deadline_ms:float -> status
(** The round exceeded the supervisor's deadline (stage ["deadline"]). *)

val transport_error : round:int -> server:int -> detail:string -> status
(** A TCP link failed mid-round — connection lost, peer unreachable, a
    reply that never came (stage ["transport"]).  Retryable: the
    transport's reconnect machinery restores the link while the
    supervisor retries the round. *)

val is_chain_shutdown : status -> bool

val retryable : status -> bool
(** Whether a fresh attempt can succeed: true for every status except
    {!chain_shutdown} (a shut-down chain stays down; link faults,
    crashes, and deadline misses are transient under §7's model). *)
