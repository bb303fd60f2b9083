(* Testbed execution: run a test case on one engine-version configuration
   in one mode (normal or strict), per the paper's §4.2 testbed setup. *)

open Jsinterp

type mode = Normal | Strict

let mode_to_string = function Normal -> "normal" | Strict -> "strict"

type testbed = {
  tb_config : Registry.config;
  tb_mode : mode;
}

let testbed_id (tb : testbed) =
  Printf.sprintf "%s[%s]" (Registry.id tb.tb_config) (mode_to_string tb.tb_mode)

(* Inverse of [testbed_id], for reviving testbeds named in serialised
   state (campaign checkpoints store the testbed set by id so a resumed
   campaign provably sweeps the same pool). *)
let testbed_of_id (s : string) : testbed option =
  let parse mode suffix =
    if String.length s > String.length suffix
       && String.sub s (String.length s - String.length suffix)
            (String.length suffix)
          = suffix
    then
      Option.map
        (fun cfg -> { tb_config = cfg; tb_mode = mode })
        (Registry.config_of_id
           (String.sub s 0 (String.length s - String.length suffix)))
    else None
  in
  match parse Normal "[normal]" with
  | Some tb -> Some tb
  | None -> parse Strict "[strict]"

(* The paper's 102 testbeds: 51 configurations x 2 modes. *)
let all_testbeds : testbed list =
  List.concat_map
    (fun c -> [ { tb_config = c; tb_mode = Normal }; { tb_config = c; tb_mode = Strict } ])
    Registry.all_configs

(* Testbeds for the newest version of each engine, the default target set
   for a fuzzing campaign. *)
let latest_testbeds ?(mode = Normal) () : testbed list =
  List.map
    (fun e -> { tb_config = Registry.latest e; tb_mode = mode })
    Registry.all_engines

let run ?(fuel = Run.default_fuel) ?(coverage = false) ?resolve ?reach
    ?specialize ?frontend (tb : testbed) (src : string) : Run.result =
  Run.run
    ~quirks:tb.tb_config.Registry.cfg_quirks
    ~parse_opts:(Registry.parse_opts_of_config tb.tb_config)
    ~strict:(tb.tb_mode = Strict)
    ~fuel ~coverage ?resolve ?reach ?specialize ?frontend src

(* A reference run: the standard-conforming engine with no quirks. Used by
   the reducer and by examples as the "expected" behaviour. *)
let run_reference ?(fuel = Run.default_fuel) ?(strict = false) ?resolve ?reach
    ?specialize (src : string) : Run.result =
  Run.run ~strict ~fuel ?resolve ?reach ?specialize src

(* Can this configuration's front end parse the program at all? Used by the
   campaign to honour the paper's rule of only testing engines against
   programs within their supported edition (§2.2). *)
let supports (c : Registry.config) (src : string) : bool =
  match
    Jsparse.Parser.parse_program ~opts:(Registry.parse_opts_of_config c) src
  with
  | _ -> true
  | exception Jsparse.Parser.Syntax_error _ ->
      (* distinguish "ES edition too old" from genuinely bad syntax: if the
         default front end accepts it, the rejection is a feature gap *)
      not (Jsparse.Parser.is_valid src)

(* The per-case front-end cache. Differential testing sweeps one source
   across many testbeds, and most of the 51 configs share the same
   effective front end; without a cache each testbed costs up to three
   parses (edition gating parses once or twice, the run itself once more).
   A [Frontend.cache] is built once per test case and shares:

   - one *permissive base parse* per profile (ES5 / standard): parsed
     sloppy with every parser-level quirk acceptance enabled. Because
     each quirk decision point either sinks its quirk (accept on) or
     raises (accept off), and each strict-divergent construct reports
     through [strict_sensitive_sink], the base parse proves its own
     reuse conditions: any [(parse_key, mode)] group whose quirk set
     covers the sunk quirks — and, for strict groups, whose source
     contains no strict-sensitive construct (or opts into strict
     itself) — parses identically and shares the base front end
     outright, compilations, reach analysis and all. An ES5 base parse
     that accepts the source as the standard one did (same sunk quirks,
     same strict sensitivity) folds into the standard base front end, so
     in the common case every testbed runs one front end, and the whole
     100-testbed sweep costs one or two parses;
   - the [supports] verdict and the syntactic-validity check backing its
     feature-gap probe, both derived from the base parses for free;
   - a real parse per [(Registry.parse_key, mode)] group whose
     difference from the base is actually observable (rare: the source
     must contain the quirky or strict-sensitive syntax).

   A cache is a plain mutable value tied to one source string. It is NOT
   domain-safe: the campaign executor builds one cache per case inside the
   worker that owns that case, and nothing else is sound. *)
module Frontend = struct
  type cache = {
    fc_src : string;
    fc_base : (bool, Run.frontend) Hashtbl.t;
        (* permissive sloppy parse, keyed by "is the ES5 profile?" *)
    fc_supports : (bool, bool) Hashtbl.t;
        (* keyed by "is the ES5 profile?" — all [supports] depends on *)
    fc_groups : (int, Run.frontend) Hashtbl.t;
        (* keyed by [Registry.pk_int] of the effective front end, with
           the strict-mode bit folded in at bit 4 — an int key hashes in
           a few ns where the (record, bool) pair paid a polymorphic
           structure walk per lookup, once per testbed per case *)
  }

  let cache (src : string) : cache =
    {
      fc_src = src;
      fc_base = Hashtbl.create 2;
      fc_supports = Hashtbl.create 2;
      fc_groups = Hashtbl.create 8;
    }

  (* Every parser-level quirk, enabled at once for the base parse. *)
  let permissive_quirks =
    Quirk.Set.of_list
      [
        Quirk.Q_eval_for_missing_body_accepted;
        Quirk.Q_strict_dup_params_accepted;
        Quirk.Q_strict_delete_unqualified_accepted;
      ]

  let rec base_frontend (fc : cache) ~(es5 : bool) : Run.frontend =
    match Hashtbl.find_opt fc.fc_base es5 with
    | Some fe -> fe
    | None ->
        let parse_opts =
          if es5 then Jsparse.Parser.es5_options
          else Jsparse.Parser.default_options
        in
        (* [reach_strict]: the base front end may serve strict groups,
           and the strict reach set is a superset of the sloppy one *)
        let fe =
          Run.parse_frontend ~quirks:permissive_quirks ~parse_opts
            ~strict:false ~reach_strict:true fc.fc_src
        in
        (* the ES5 fold: ES5 options only add rejections, so when the ES5
           parse accepts the source leaning on the same quirks and meeting
           the same strict-sensitive constructs, it built the standard
           tree. Serve the standard base front end instead, so ES5 and
           standard testbeds share its compilations and execution classes *)
        let fe =
          if not es5 then fe
          else
            let std = base_frontend fc ~es5:false in
            match (fe.Run.fe_program, std.Run.fe_program) with
            | Ok _, Ok _
              when Quirk.Set.equal fe.Run.fe_fired std.Run.fe_fired
                   && fe.Run.fe_strict_sensitive = std.Run.fe_strict_sensitive
              ->
                std
            | _ -> fe
        in
        Hashtbl.replace fc.fc_base es5 fe;
        fe

  (* Parses under the profile's own options (no quirk acceptances): the
     permissive base succeeded without leaning on any acceptance. *)
  let parses_clean (fe : Run.frontend) : bool =
    (match fe.Run.fe_program with Ok _ -> true | Error _ -> false)
    && Quirk.Set.is_empty fe.Run.fe_fired

  (* Syntactic validity under the standard front end, derived from the
     standard base parse instead of a parse of its own. *)
  let valid (fc : cache) : bool = parses_clean (base_frontend fc ~es5:false)

  let supports (fc : cache) (c : Registry.config) : bool =
    let key = c.Registry.cfg_es = Registry.ES5 in
    match Hashtbl.find_opt fc.fc_supports key with
    | Some b -> b
    | None ->
        let b = parses_clean (base_frontend fc ~es5:key) || not (valid fc) in
        Hashtbl.replace fc.fc_supports key b;
        b

  let source (fc : cache) = fc.fc_src

  (* The shared front end of an arbitrary parse group. Two profiles with
     the same [key] have identical effective options, so whichever member
     arrives first parses on behalf of the whole group — and when the
     base parse's sunk-quirk and strict-sensitivity evidence proves the
     group's options unobservable on this source, the group shares the
     base front end without parsing at all. *)
  (* The packed table key of a parse group: [pk_int] plus the strict bit. *)
  let group_key (pk : Registry.parse_key) ~(strict : bool) : int =
    Registry.pk_int pk lor if strict then 16 else 0

  let frontend_for (fc : cache) ~(key : Registry.parse_key * bool)
      ~(quirks : Quirk.Set.t) ~(parse_opts : Jsparse.Parser.options)
      ~(strict : bool) : Run.frontend =
    let ikey = group_key (fst key) ~strict:(snd key) in
    match Hashtbl.find_opt fc.fc_groups ikey with
    | Some fe -> fe
    | None ->
        let pk, _ = key in
        let base = base_frontend fc ~es5:pk.Registry.pk_es5 in
        let subsumed =
          (* all quirks the base parse leaned on are enabled here, so
             this group's parse accepts at the same points and sinks the
             same (post-filter) set *)
          Quirk.Set.subset base.Run.fe_fired quirks
        in
        let mode_ok =
          (not strict)
          || (not base.Run.fe_strict_sensitive)
          ||
          (* a directive-prologue opt-in makes the sloppy parse strict
             already; forcing the mode changes nothing *)
          match base.Run.fe_program with
          | Ok p -> p.Jsast.Ast.prog_strict
          | Error _ -> false
        in
        let fe =
          if subsumed && mode_ok then base
          else Run.parse_frontend ~quirks ~parse_opts ~strict fc.fc_src
        in
        Hashtbl.replace fc.fc_groups ikey fe;
        fe

  let frontend (fc : cache) (tb : testbed) : Run.frontend =
    let cfg = tb.tb_config in
    frontend_for fc
      ~key:(Registry.parse_key cfg, tb.tb_mode = Strict)
      ~quirks:cfg.Registry.cfg_quirks
      ~parse_opts:(Registry.parse_opts_of_config cfg)
      ~strict:(tb.tb_mode = Strict)
end

(* The per-case execution-sharing cache, extending {!Frontend} from shared
   parses to shared *executions*. Differential testing interprets one case
   on up to 102 testbeds, yet a typical case reaches only a handful of the
   73 registered quirk checkpoints, so most testbeds are guaranteed to
   replay the reference behaviour byte for byte. [Exec.run] therefore
   executes once per *behavioural equivalence class* — testbeds keyed by
   (front end, fuel, quirk set ∩ touched checkpoints) — and lets
   every other member inherit the representative's [Run.result] (output,
   status, fuel, fired), so majority voting and the 2t rule see exactly
   the results a direct sweep would have produced.

   The front end is the physical [Run.frontend] the testbed runs, not its
   parse group: {!Frontend} already proves most parse groups (ES5 and
   parser-quirk ones included) parse the source into one shared tree, and
   the only run-time reader of the engine's parse options is [eval]. So a
   representative that never reparsed ([ex_reparsed = false]) serves
   every parse group on its front end, and one that did serves only
   members of its own parse key.

   The mode is not in the key either. A strict-mode testbed whose front
   end is the sloppy parse runs the same tree; strictness only shows at
   the few run-time points that call [Value.touch_mode] (a failed store
   or delete, an undeclared or frozen-binding assignment, a missing
   receiver bound for a callee that reads [this]). A representative that
   reached none of them ([ex_mode_touched = false]) serves both modes, and
   one that did serves only its own.

   Classes are discovered by a split-and-rerun fixpoint: each incoming
   testbed is validated against the representatives found so far, in
   creation order, using the representative's *own* touched set
   ([Run.shares_class] — sound because a firing quirk can steer control
   flow into new checkpoints, so only the representative's observed
   touched set, never a prediction, may justify sharing). A testbed that
   matches no representative splits off and is rerun as the
   representative of a fresh class. Each iteration retires one testbed,
   so the loop is bounded by the group size and degenerates to the
   unshared sweep in the worst case. Soundness argument: DESIGN.md §8.

   Like [Frontend.cache], a cache is a plain mutable value tied to one
   source string and is NOT domain-safe: the campaign executor builds one
   per case inside the worker that owns the case. *)
module Exec = struct
  (* A class entry holds the representative list (ground truth, oldest
     first) plus the static partition cells hanging off it. A cell key is
     the quirk set ∩ the front end's static reach set, packed into its two
     machine words ([Quirk.Bits]): a Quirk.Set.t has order-dependent tree
     shape, and a sorted element list allocates and hashes slowly. The
     static reach set over-approximates every touched set of the front
     end, so two quirk sets in one cell agree on every checkpoint any
     execution can consult — a cell hit shares without scanning the full
     class list. Purely an acceleration: the class list stays the ground
     truth, so executions performed are identical with or without the
     analysis. Cells live inside the class entry as a small inline list
     with the two cell words compared directly: a class sees at most a
     handful of distinct cells, and polymorphic hashing of structured
     keys (~0.5µs per call, ~40k calls per campaign) cost more than the
     cells save. The inline walk is two integer compares per entry and
     allocates nothing on the lookup path. *)
  type rep = {
    rp_ex : Run.exec;
    rp_pk : int;
        (* [Registry.pk_int] of the parse key it ran under — consulted
           only when the execution reparsed at run time ([ex_reparsed]) *)
    rp_strict : bool;
        (* the mode it ran in — consulted only when the execution reached
           a mode-dependent point ([ex_mode_touched]) *)
  }

  type cell = {
    ce_lo : int;
    ce_hi : int;  (* quirks ∩ reach set, packed ([Quirk.Bits]) *)
    mutable ce_reps : rep list;
  }

  (* One class table entry, keyed by the physical front end and the fuel
     budget (fuel is in the key so a cache survives mixed budgets). A case
     sees one to three front ends, so the table is a short list compared
     by [==]: no hashing and no allocation on the lookup path. *)
  type cls = {
    cl_fe : Run.frontend;
    cl_fuel : int;
    mutable cl_reps : rep list;
    mutable cl_cells : cell list;
  }

  type cache = {
    ec_frontend : Frontend.cache;
    mutable ec_classes : cls list;
    mutable ec_executed : int;  (* real interpreter executions *)
    mutable ec_shared : int;    (* runs answered by class inheritance *)
    mutable ec_seeded : int;    (* shared runs answered by the static cell *)
  }

  (* Process-wide tally of cell-hit shares, the analogue of
     [Run.run_count]: per-case caches die with their worker, so campaign
     stats read a before/after delta of this counter instead. *)
  let seeded_total = Atomic.make 0
  let seeded_count () = Atomic.get seeded_total

  (* Fold a forked campaign worker's reach-seeded delta into this
     process's count (see [Run.add_runs]). *)
  let add_seeded n = if n > 0 then ignore (Atomic.fetch_and_add seeded_total n)

  let of_frontend (fc : Frontend.cache) : cache =
    {
      ec_frontend = fc;
      ec_classes = [];
      ec_executed = 0;
      ec_shared = 0;
      ec_seeded = 0;
    }

  let cache (src : string) : cache = of_frontend (Frontend.cache src)

  let frontend_cache (ec : cache) = ec.ec_frontend
  let supports (ec : cache) (c : Registry.config) =
    Frontend.supports ec.ec_frontend c

  let stats (ec : cache) = (ec.ec_executed, ec.ec_shared)
  let seeded (ec : cache) = ec.ec_seeded


  let run_keyed ?resolve ?reach ?specialize ?qbits (ec : cache)
      ~(pkey : Registry.parse_key) ~(quirks : Quirk.Set.t)
      ~(parse_opts : Jsparse.Parser.options) ~(strict : bool) ~(fuel : int)
      : Run.result =
    let reach =
      match reach with Some r -> r | None -> Run.reach_by_default ()
    in
    (* packed quirk words; callers on the campaign hot path pass the
       precomputed [Registry.cfg_qbits] so nothing is rebuilt per case *)
    let qbits =
      match qbits with Some b -> b | None -> Quirk.Bits.of_set quirks
    in
    let fe =
      Frontend.frontend_for ec.ec_frontend ~key:(pkey, strict) ~quirks
        ~parse_opts ~strict
    in
    match fe.Run.fe_program with
    | Error _ ->
        (* nothing executes; [run ~frontend] only renders the stored
           syntax error and filters the sunk parse quirks *)
        Run.run ~quirks ~parse_opts ~strict ~fuel ?resolve ~reach ?specialize
          ~frontend:fe
          (Frontend.source ec.ec_frontend)
    | Ok _ -> (
        let rec find_cls = function
          | [] ->
              let c =
                {
                  cl_fe = fe;
                  cl_fuel = fuel;
                  cl_reps = [];
                  cl_cells = [];
                }
              in
              ec.ec_classes <- c :: ec.ec_classes;
              c
          | c :: tl ->
              if c.cl_fe == fe && c.cl_fuel = fuel then c
              else find_cls tl
        in
        let cls = find_cls ec.ec_classes in
        (* the static cell of this quirk set, when the analysis is on:
           two machine words of intersection, then an inline walk of the
           class's few cells — no hashing, no allocation *)
        let bucket =
          if not reach then None
          else begin
            let qlo, qhi = qbits in
            let rlo, rhi = Lazy.force fe.Run.fe_reach_bits in
            let lo = qlo land rlo and hi = qhi land rhi in
            let rec find = function
              | [] ->
                  let c = { ce_lo = lo; ce_hi = hi; ce_reps = [] } in
                  cls.cl_cells <- c :: cls.cl_cells;
                  c
              | c :: tl ->
                  if c.ce_lo = lo && c.ce_hi = hi then c else find tl
            in
            Some (find cls.cl_cells)
          end
        in
        (* the class condition, plus two guards: an execution that
           reparsed ([eval]) read its parse options, so it lends its
           result only within its own parse key, and one that reached a
           mode-dependent point lends only within its own mode *)
        let pk = Registry.pk_int pkey in
        let matches r =
          Run.shares_class_bits ~qbits r.rp_ex
          && ((not r.rp_ex.Run.ex_reparsed) || r.rp_pk = pk)
          && ((not r.rp_ex.Run.ex_mode_touched) || r.rp_strict = strict)
        in
        let cell_hit =
          match bucket with
          | Some c -> List.find_opt matches c.ce_reps
          | None -> None
        in
        match cell_hit with
        | Some r ->
            (* same-cell representative: [shares_class] is implied by the
               cell equality (touched ⊆ reach set), and re-checked above
               as a cheap defence against an unsound analysis *)
            ec.ec_shared <- ec.ec_shared + 1;
            ec.ec_seeded <- ec.ec_seeded + 1;
            Atomic.incr seeded_total;
            Run.share ~frontend:fe ~quirks r.rp_ex
        | None -> (
            match List.find_opt matches cls.cl_reps with
            | Some r ->
                (* cross-cell share (the representative's cell differs on
                   some statically-reachable but dynamically-untouched
                   checkpoint): remember it in this cell too, so the next
                   same-cell member hits without the full scan *)
                ec.ec_shared <- ec.ec_shared + 1;
                (match bucket with
                | Some c -> c.ce_reps <- c.ce_reps @ [ r ]
                | None -> ());
                Run.share ~frontend:fe ~quirks r.rp_ex
            | None ->
                (* split: no representative validates this quirk set (and
                   parse key and mode), so it seeds a new class with a
                   direct execution *)
                let ex =
                  Run.run_exec ~quirks ~parse_opts ~strict ~fuel ?resolve
                    ~reach ?specialize ~frontend:fe
                    (Frontend.source ec.ec_frontend)
                in
                let r = { rp_ex = ex; rp_pk = pk; rp_strict = strict } in
                ec.ec_executed <- ec.ec_executed + 1;
                cls.cl_reps <- cls.cl_reps @ [ r ];
                (match bucket with
                | Some c -> c.ce_reps <- c.ce_reps @ [ r ]
                | None -> ());
                ex.Run.ex_result))

  let run ?(fuel = Run.default_fuel) ?resolve ?reach ?specialize (ec : cache)
      (tb : testbed) : Run.result =
    let cfg = tb.tb_config in
    run_keyed ?resolve ?reach ?specialize ~qbits:cfg.Registry.cfg_qbits ec
      ~pkey:(Registry.parse_key cfg)
      ~quirks:cfg.Registry.cfg_quirks
      ~parse_opts:(Registry.parse_opts_of_config cfg)
      ~strict:(tb.tb_mode = Strict) ~fuel

  (* The conforming reference engine through the same cache: runs on the
     front end of the standard, quirk-free parse group — usually the
     shared base front end — and (having no quirks at all) shares any
     class on it whose representative fired nothing it touched, provided
     that representative did not reparse under other parse options. *)
  let run_reference ?(fuel = Run.default_fuel) ?(strict = false) ?resolve
      ?reach ?specialize (ec : cache) : Run.result =
    run_keyed ?resolve ?reach ?specialize ~qbits:Quirk.Bits.empty ec
      ~pkey:Registry.reference_parse_key
      ~quirks:Quirk.Set.empty
      ~parse_opts:Jsparse.Parser.default_options ~strict ~fuel
end
