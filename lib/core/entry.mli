(** The untrusted entry server (§7): multiplexes client requests into
    rounds and demultiplexes results. *)

type submit_status =
  | Accepted  (** inside the admission window; the request has a slot *)
  | Late of { next_round : int }
      (** the round already closed — onions are round-keyed, so the
          request cannot join it; re-wrap for [next_round] *)

type 'id t

val create : ?round:int -> chunk:int -> sink:(bytes array -> unit) -> unit -> 'id t
(** A collector for [round] (default [0]): every time [chunk] requests
    are buffered they are flushed to [sink] as one slot-ordered chunk,
    so the peak buffered onion count is bounded by [chunk], not the
    population (checked by {!peak_buffered}).  [chunk = max_int] holds
    the whole round until {!close}.
    @raise Invalid_argument if [chunk < 1]. *)

val round : 'id t -> int

val submit : 'id t -> 'id -> bytes -> submit_status
(** Before the round freezes: record the request, [Accepted].  After:
    answer [Late] — never raises. *)

val peak_buffered : 'id t -> int
(** High-water mark of simultaneously buffered requests: at most the
    chunk size. *)

val close : 'id t -> 'id array
(** Flush the tail chunk to the sink, freeze the round, and return the
    slot-ordered client ids (the requests already went to the sink). *)

val demux : ids:'id array -> bytes array -> ('id * bytes) list
(** Pair each slot's result with its client.
    @raise Invalid_argument on size mismatch. *)
