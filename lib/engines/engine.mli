(** Testbed execution (paper §4.2): run a test case on one engine-version
    configuration in one mode. The paper's setup is 102 testbeds — 51
    configurations, each in normal and strict mode. *)

type mode = Normal | Strict

val mode_to_string : mode -> string

type testbed = { tb_config : Registry.config; tb_mode : mode }

val testbed_id : testbed -> string

(** Inverse of {!testbed_id}; [None] for an id naming no registered
    configuration. Used to revive campaign checkpoints. *)
val testbed_of_id : string -> testbed option

(** All 102 testbeds. *)
val all_testbeds : testbed list

(** The newest version of each engine (default campaign target set). *)
val latest_testbeds : ?mode:mode -> unit -> testbed list

(** Execute a source program on a testbed. [frontend] reuses a pre-parsed
    front end (see {!Frontend}), skipping this run's own parse. [config]
    selects the production core (default) or the reference oracle
    ({!Jsinterp.Run.config}); results are bit-for-bit identical either
    way. *)
val run :
  ?fuel:int ->
  ?coverage:bool ->
  ?config:Jsinterp.Run.config ->
  ?frontend:Jsinterp.Run.frontend ->
  testbed ->
  string ->
  Jsinterp.Run.result

(** The standard-conforming engine with no quirks, on the production core —
    the "expected" behaviour used by the reducer and examples. *)
val run_reference : ?fuel:int -> ?strict:bool -> string -> Jsinterp.Run.result

(** Can this configuration's front end express the program at all? Used to
    honour the paper's rule of only testing engines against programs within
    their supported ECMAScript edition (§2.2). *)
val supports : Registry.config -> string -> bool

(** Per-test-case front-end cache. Built once per source, it shares the
    {!supports} verdict per base front-end profile and one parse per
    distinct [(Registry.parse_key, mode)] group across a testbed sweep,
    cutting the front-end cost from 2–3 parses per testbed to one per
    group. A cache is mutable and single-domain: the campaign executor
    builds one inside the worker that owns the case. *)
module Frontend : sig
  type cache

  val cache : string -> cache

  (** The source string the cache was built for. *)
  val source : cache -> string

  (** Memoised {!Engine.supports}: same verdict, at most one parse per
      base front-end profile (plus one validity probe) per case. *)
  val supports : cache -> Registry.config -> bool

  (** The shared front end for this testbed's parse group, parsing on
      first use. Pass to [run ~frontend]. Groups whose parse options are
      unobservable on the source — parser-quirk groups whose quirks cover
      what the base parse leaned on, and ES5 groups whose parse accepts
      the source as the standard one does — get the same physical front
      end, which {!Exec} uses as its class key. *)
  val frontend : cache -> testbed -> Jsinterp.Run.frontend

  (** The shared front end of an arbitrary parse group, for profiles not
      backed by a registry config (e.g. the reference engine). Profiles
      mapping to the same [key] must have identical effective options. *)
  val frontend_for :
    cache ->
    key:Registry.parse_key * bool ->
    quirks:Jsinterp.Quirk.Set.t ->
    parse_opts:Jsparse.Parser.options ->
    strict:bool ->
    Jsinterp.Run.frontend
end

(** Per-test-case execution-sharing cache, extending {!Frontend} from
    shared parses to shared executions. [run] interprets once per
    behavioural equivalence class — testbeds keyed by (front end run,
    fuel, quirks ∩ touched checkpoints), across parse groups and modes
    that share a front end — and every other member inherits the
    representative's [Run.result], byte-identical to a direct sweep
    (soundness argument in DESIGN.md §8). A representative that parsed
    source at run time ([eval], [Run.exec.ex_reparsed]) shares only
    within its own parse key, and one that reached a mode-dependent point
    ([Run.exec.ex_mode_touched]) only within its own mode. Classes are
    found by a bounded split-and-rerun fixpoint validated against each
    representative's own touched set. Executions run on the production core. Mutable,
    single-domain, tied to one source string, like {!Frontend.cache}. *)
module Exec : sig
  type cache

  val cache : string -> cache

  (** Wrap an existing front-end cache (shares its parse groups). *)
  val of_frontend : Frontend.cache -> cache

  val frontend_cache : cache -> Frontend.cache

  (** Memoised {!Engine.supports}, via the underlying front-end cache. *)
  val supports : cache -> Registry.config -> bool

  (** [(executed, shared)]: interpreter executions actually performed vs.
      runs answered by class inheritance. *)
  val stats : cache -> int * int

  (** Execute an arbitrary quirk profile on the cached source, sharing
      across its behavioural equivalence class — the generalisation of
      {!run} to profiles not backed by a registry config (the campaign's
      causal-attribution probes, which run a testbed's quirk set with one
      quirk removed). [pkey] must be the parse key of the {e effective}
      front end — callers removing a parser-level quirk must clear the
      corresponding flag — and profiles mapping to the same [pkey] must
      have identical effective options, as in {!Frontend.frontend_for}.
      [qbits] defaults to packing [quirks]; pass a precomputed value on
      hot paths. *)
  val run_keyed :
    ?qbits:Jsinterp.Quirk.Bits.t ->
    cache ->
    pkey:Registry.parse_key ->
    quirks:Jsinterp.Quirk.Set.t ->
    parse_opts:Jsparse.Parser.options ->
    strict:bool ->
    fuel:int ->
    Jsinterp.Run.result

  (** Execute [tb] on the cached source, sharing across the testbed's
      equivalence class. Same contract as {!Engine.run} on that source. *)
  val run : ?fuel:int -> cache -> testbed -> Jsinterp.Run.result

  (** The conforming reference engine through the same cache (same
      contract as {!Engine.run_reference} on the cached source). *)
  val run_reference : ?fuel:int -> ?strict:bool -> cache -> Jsinterp.Run.result
end
