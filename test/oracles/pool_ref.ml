(* One thunk per item through [Pool.run]: the strategy the chunked
   engine replaced, so the benchmark can show the A/B delta. *)
let mapi_array_per_item pool f a =
  Vuvuzela_parallel.Pool.run pool (Array.mapi (fun i x () -> f i x) a)
