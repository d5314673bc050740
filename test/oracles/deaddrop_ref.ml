(* Seed conversation dead-drop store, retained verbatim as the
   differential oracle for the rewritten {!Deaddrop} (the Chacha20_ref /
   Fe25519_ref playbook).  Only `test/prop/prop_deaddrop.ml` should use
   this module; production code goes through {!Deaddrop}.

   Known quirks preserved on purpose:
   - [histogram] recomputes [List.length] per drop (O(accesses));
   - [resolve] fills every lone slot with the *same* mutable
     [empty_result] buffer. *)

open Vuvuzela

type access = { slot : int; sealed : bytes }

type t = {
  drops : (string, access list) Hashtbl.t;
      (* key: drop id; value: accesses in arrival order (newest first) *)
  mutable total_accesses : int;
}

let create () = { drops = Hashtbl.create 1024; total_accesses = 0 }

let clear t =
  Hashtbl.reset t.drops;
  t.total_accesses <- 0

(* Record one exchange request. *)
let put t ~slot ~drop_id ~sealed =
  let key = Bytes.to_string drop_id in
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.drops key) in
  Hashtbl.replace t.drops key ({ slot; sealed } :: prev);
  t.total_accesses <- t.total_accesses + 1

let empty_result = Bytes.make Types.exchange_result_len '\000'

(* Resolve all drops: returns the per-slot results.  [n_slots] is the
   batch size; every slot receives exactly [Types.exchange_result_len]
   bytes. *)
let resolve t ~n_slots =
  let results = Array.make n_slots empty_result in
  Hashtbl.iter
    (fun _ accesses ->
      match List.rev accesses with
      | [ _ ] -> () (* lone access: empty result *)
      | a :: b :: _rest ->
          (* First two accesses exchange contents; any later (necessarily
             adversarial) duplicates keep the empty result. *)
          results.(a.slot) <- b.sealed;
          results.(b.slot) <- a.sealed
      | [] -> ())
    t.drops;
  results

type histogram = { m1 : int; m2 : int; m_more : int }

let histogram t =
  Hashtbl.fold
    (fun _ accesses acc ->
      match List.length accesses with
      | 1 -> { acc with m1 = acc.m1 + 1 }
      | 2 -> { acc with m2 = acc.m2 + 1 }
      | n when n > 2 -> { acc with m_more = acc.m_more + 1 }
      | _ -> acc)
    t.drops
    { m1 = 0; m2 = 0; m_more = 0 }
