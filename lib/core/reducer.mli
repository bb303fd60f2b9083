(** Test-case reduction (paper §3.5).

    Iteratively removes code structures — statement deletion at every
    nesting depth, plus replacing compound statements by their bodies —
    keeping a step whenever the reduced program still triggers the same
    anomalous behaviour, until a fixpoint. *)

(** [reduce ~still_triggers src] shrinks [src] greedily while the predicate
    holds on each candidate. Returns [src] unchanged if it does not parse.
    [jobs] parallelises the per-candidate probes (chunked first-improvement:
    the accepted candidate is the sequentially-first one, so the result is
    identical at any job count). *)
val reduce : ?jobs:int -> still_triggers:(string -> bool) -> string -> string

(** Build the predicate from an observed deviation: the reduced program
    must keep the same behaviour class on the deviating testbed (vs the
    conforming reference) and keep firing the same ground-truth quirks.
    The target and reference runs go through one per-candidate
    {!Engines.Engine.Exec} cache, sharing the parse and often the
    execution itself. [reach] is ignored; it is kept only for the
    benchmark's call, which has no other caller. *)
val still_triggers_deviation :
  ?reach:bool ->
  Engines.Engine.testbed ->
  Difftest.deviation ->
  string ->
  bool
