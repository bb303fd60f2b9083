(** Differential testing with majority voting (paper §3.4, Figure 5).

    A test case runs on every applicable testbed; engines whose front end
    does not support the program's ECMAScript edition are excluded (§2.2).
    Each run is summarised to a behaviour signature, the majority signature
    is taken as ground truth, and minority testbeds are reported as
    deviations. Crashes and timeouts are flagged regardless of the vote. *)

type signature =
  | Sig_parse_fail
  | Sig_normal of string              (** printed output *)
  | Sig_exception of string * string  (** error name, output before throw *)
  | Sig_crash
  | Sig_timeout

val signature_to_string : signature -> string

(** The Figure-5 outcome classes a deviation can take. *)
type deviation_kind = Dev_parse | Dev_output | Dev_exception | Dev_crash | Dev_timeout

val deviation_kind_to_string : deviation_kind -> string

type deviation = {
  d_testbed : Engines.Engine.testbed;
  d_kind : deviation_kind;
  d_expected : string;   (** majority signature, rendered *)
  d_actual : string;
  d_behavior : string;   (** leaf label for the Fig. 6 filter tree *)
  d_fired : Jsinterp.Quirk.Set.t;
      (** ground-truth quirks that fired on the deviating run *)
}

type case_report = {
  cr_case : Testcase.t;
  cr_deviations : deviation list;
  cr_all_parse_failed : bool;  (** consistent parse error — case ignored *)
  cr_all_timeout : bool;       (** likely an infinite loop — case ignored *)
  cr_tested : int;             (** testbeds that actually ran the case *)
  cr_faulted : (string * Supervisor.fault_report) list;
      (** testbeds whose supervised execution exhausted its retry budget
          (infrastructure faults, Fig. 5's harness-failure lane): excluded
          from the vote, never reported as deviations *)
  cr_skipped : int;            (** testbeds dropped by quarantine *)
}

(** Classify one engine run. *)
val signature_of_result : Jsinterp.Run.result -> signature

val behavior_label : signature -> signature -> string
val kind_of : signature -> signature -> deviation_kind

(** The campaign's per-testbed execution budget (fuel units standing in
    for wall-clock) — the single constant behind [run_case],
    [Campaign.run] and [Feedback.run_rounds]. Deliberately far below
    [Run.default_fuel]: deep enough for every seeded quirk trigger while
    keeping the 2t rule's timeout floor meaningful across a 102-testbed
    sweep. *)
val campaign_fuel : int

(** Is execution sharing enabled by default? True unless the
    COMFORT_NO_SHARE environment variable is set to a non-empty value. *)
val share_by_default : unit -> bool

(** The §3.4 2t rule: a run that terminated normally but burned more than
    twice the slowest {e other} run (floor 20k fuel) is reclassified as a
    timeout. Exclusion of "self" from the comparison pool is by position,
    never by fuel value, so two equally-slow engines cannot hide each
    other. Exposed for the test suite. *)
val apply_2t_rule :
  (Engines.Engine.testbed * Jsinterp.Run.result) list ->
  (Engines.Engine.testbed * Jsinterp.Run.result * signature) list

(** The raw material of one differential test: every applicable testbed's
    supervised execution outcome, before any vote. Produced on a worker
    domain by {!sweep_case}; turned into a {!case_report} on the driver by
    {!judge}. The split is what keeps supervision deterministic
    (DESIGN.md §10): fault draws depend only on (plan, testbed, case
    key), and every stateful decision — quarantine, the majority — runs
    in submission order on the driver. *)
type sweep = {
  sw_case : Testcase.t;
  sw_key : int;  (** the case key the fault draws were keyed by *)
  sw_execs :
    (Engines.Engine.testbed * Jsinterp.Run.result Supervisor.outcome) list;
}

(** The worker half of one differential test: execute the case on every
    applicable testbed under the fault plan and supervision policy.
    [supervisor] is consulted only through its racy monotone quarantine
    snapshot, to skip work {!judge} would discard. With no
    [plan]/[policy] the per-testbed execution is the bare engine run.
    [cache] shares one per-case {!Engines.Engine.Exec} cache across this
    case's several sweeps (the campaign sweeps each mode group
    separately), so the base parses and reach analyses run once per case;
    it must have been built for [tc]'s source on the calling domain.
    A representative that reached no mode-dependent point serves both
    mode groups; sharing is exact, so the report is byte-identical with
    or without it. *)
val sweep_case :
  ?fuel:int ->
  ?share:bool ->
  ?resolve:bool ->
  ?reach:bool ->
  ?specialize:bool ->
  ?plan:Supervisor.Faultplan.t ->
  ?policy:Supervisor.policy ->
  ?supervisor:Supervisor.t ->
  ?case_key:int ->
  ?cache:Engines.Engine.Exec.cache ->
  Engines.Engine.testbed list ->
  Testcase.t ->
  sweep

(** The driver half: discard results from quarantined testbeds, feed the
    supervisor its per-testbed observations (updating consecutive-fault
    counters and the quarantine set), then vote over the surviving runs
    exactly as an unsupervised sweep would. Must be called in case
    submission order when a supervisor is threaded through. *)
val judge : ?supervisor:Supervisor.t -> sweep -> case_report

(** Run one test case across the given testbeds and vote —
    [judge (sweep_case ...)]. [share] (default {!share_by_default})
    collapses the sweep into behavioural equivalence classes via
    {!Engines.Engine.Exec}, executing once per class instead of once per
    testbed; the report is byte-identical either way (DESIGN.md §8).
    [resolve] (default {!Jsinterp.Run.resolve_by_default}) selects the
    slot-compiled interpreter core for reference executions (DESIGN.md
    §9); the report is byte-identical either way. [reach] (default
    {!Jsinterp.Run.reach_by_default}) consults the static checkpoint
    reachability analysis (DESIGN.md §11) to seed sharing cells and fold
    unreachable checkpoint consultations; the report is byte-identical
    either way. [specialize] (default
    {!Jsinterp.Run.specialize_by_default}) executes on the
    quirk-specialised fast path — copy-on-write realms, per-cell compiled
    closures with baked-in checkpoint answers, inline caches (DESIGN.md
    §12); the report is byte-identical either way.
    [plan]/[policy]/[supervisor] enable supervised execution
    (DESIGN.md §10); with all three absent the report is exactly the
    pre-supervision one. [cache] is passed through to {!sweep_case}. *)
val run_case :
  ?fuel:int ->
  ?share:bool ->
  ?resolve:bool ->
  ?reach:bool ->
  ?specialize:bool ->
  ?plan:Supervisor.Faultplan.t ->
  ?policy:Supervisor.policy ->
  ?supervisor:Supervisor.t ->
  ?case_key:int ->
  ?cache:Engines.Engine.Exec.cache ->
  Engines.Engine.testbed list ->
  Testcase.t ->
  case_report

(** Field-wise equality of deviations / reports, using
    [Quirk.Set.equal] on the fired sets (structural [(=)] is unreliable
    on sets). *)
val deviation_equal : deviation -> deviation -> bool

val report_equal : case_report -> case_report -> bool

exception Share_mismatch of string

(** Cross-check mode: run the case once shared and once direct, raise
    {!Share_mismatch} if the reports differ in any observable field, and
    return the shared report otherwise. *)
val audit_case :
  ?fuel:int ->
  ?resolve:bool ->
  ?reach:bool ->
  ?specialize:bool ->
  Engines.Engine.testbed list ->
  Testcase.t ->
  case_report

exception Reach_unsound of string

(** Soundness-audit mode for the static reachability analysis: execute
    the case directly (no sharing) on every applicable testbed, raise
    {!Reach_unsound} if any run consulted a checkpoint outside the static
    reach set of its parse group ([Run.reach_set]), and return the
    ordinary {!run_case} report otherwise. *)
val audit_reach_case :
  ?fuel:int ->
  ?share:bool ->
  ?resolve:bool ->
  ?reach:bool ->
  ?specialize:bool ->
  Engines.Engine.testbed list ->
  Testcase.t ->
  case_report

exception Specialize_mismatch of string

(** Cross-check mode for the quirk-specialised fast path: run the case
    once specialised and once generic, raise {!Specialize_mismatch} if
    the reports differ in any observable field, and return the
    specialised report otherwise (the dynamic check behind DESIGN.md
    §12's correctness ladder). *)
val audit_specialize_case :
  ?fuel:int ->
  ?share:bool ->
  ?resolve:bool ->
  ?reach:bool ->
  Engines.Engine.testbed list ->
  Testcase.t ->
  case_report
