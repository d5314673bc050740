(** The naive one-task-per-item pool strategy that the chunked
    {!Vuvuzela_parallel.Pool} replaced, kept as the benchmark baseline
    and as an oracle for its determinism contract. *)

val mapi_array_per_item :
  Vuvuzela_parallel.Pool.t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** One closure and one option box per element, all through the pool's
    shared queue ({!Vuvuzela_parallel.Pool.run}).  Semantically
    identical to [Pool.mapi_array]; never use it on a hot path. *)
