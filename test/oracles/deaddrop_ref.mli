(** Seed conversation dead-drop store, kept verbatim as the differential
    oracle for the rewritten {!Deaddrop} (see
    [test/prop/prop_deaddrop.ml]).  Not for production use. *)

open Vuvuzela

type t

val create : unit -> t
val clear : t -> unit
val put : t -> slot:int -> drop_id:Types.drop_id -> sealed:bytes -> unit
val empty_result : bytes
val resolve : t -> n_slots:int -> bytes array

type histogram = { m1 : int; m2 : int; m_more : int }

val histogram : t -> histogram
