(** No-op left where the deleted cross-query verdict memo was; {!Replay}
    is the only result cache.  It exists only because the benchmark
    program ([perfbench/main.ml]) calls [Smartly.Memo.reset ()]: drop
    the module together with that call in the next change to the
    benchmark. *)

val reset : unit -> unit
(** Does nothing. *)
