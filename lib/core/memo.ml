(* Stub for the deleted verdict memo; see memo.mli. *)

let reset () = ()
