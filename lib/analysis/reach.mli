(** Static quirk-reachability analysis (DESIGN.md §11).

    Computes, per program, a conservative over-approximation of the quirk
    checkpoints ([Quirkdef.t]) an execution can consult — the set
    [Value.quirk_on] records into a run's touched set. The abstract domain
    is a set of checkpoint ids with [top] (all checkpoints) as the value of
    dynamic constructs the analysis cannot bound ([eval], computed member
    access with the global object in reach).

    Soundness contract (asserted dynamically by [--audit-reach]): for every
    execution of the program under any quirk configuration, fuel budget and
    mode compatible with the [strict] argument,
    [checkpoints p] ⊇ the execution's touched set.

    Consumers: [Engines.Engine.Exec] keys equivalence-class buckets on the
    set's intersection with each testbed's quirks (zero-probe class
    seeding); [Jsinterp.Compile] constant-folds consultation sites whose
    checkpoint is statically unreachable, with [Deopt_to_tree] as the
    escape hatch. *)

(** All checkpoint ids — the top element of the domain. *)
val top : Quirkdef.Set.t

val is_top : Quirkdef.Set.t -> bool

(** The join of every builtin-name-mapped checkpoint: what a computed
    member access with a dynamic key can reach without the global object.
    A strict subset of [top] (operator, optimizer, strict-mode and
    parse-stage checkpoints all need their own syntax). *)
val name_top : Quirkdef.Set.t

(** Can a call of the function observe the [this] it is bound to? True
    when its body, nested functions included, contains [this] or the
    identifier [eval] — an over-approximation. Both interpreter cores
    consult the strict-[this] checkpoint, and bind a missing receiver by
    mode, only for callees where this holds; the analysis adds that
    checkpoint only when some ordinary function satisfies it. *)
val observes_this : Jsast.Ast.func -> bool

(** [checkpoints ?strict p] is the static touch-set of [p]. [strict]
    (default [false]) widens the result with the strict-mode-only
    checkpoints; it must be [true] whenever the program may execute under
    forced strict mode. A program-level ["use strict"] prologue or one in
    any function body widens regardless of the argument. *)
val checkpoints : ?strict:bool -> Jsast.Ast.program -> Quirkdef.Set.t

(** Parse-and-analyze convenience for diagnostics ([comfort analyze]);
    returns the empty set when [src] does not parse (a parse-failing case
    consults nothing at run time). *)
val checkpoints_src : ?strict:bool -> string -> Quirkdef.Set.t
