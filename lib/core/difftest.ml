(* Differential testing with majority voting (paper §3.4, Fig. 5).

   A test case runs on every applicable testbed; testbeds whose front end
   does not support the program's ECMAScript edition are excluded (§2.2).
   Each run is summarised to a behaviour signature; the majority signature
   is taken as ground truth and every minority testbed is reported as a
   deviation, classified into the Figure-5 vocabulary. Crashes and
   timeouts are flagged regardless of the vote. *)

open Jsinterp

type signature =
  | Sig_parse_fail
  | Sig_normal of string           (** printed output *)
  | Sig_exception of string * string  (** error name, output before throw *)
  | Sig_crash
  | Sig_timeout

let signature_to_string = function
  | Sig_parse_fail -> "parse error"
  | Sig_normal out -> "output " ^ String.escaped out
  | Sig_exception (name, _) -> "uncaught " ^ name
  | Sig_crash -> "crash"
  | Sig_timeout -> "timeout"

type deviation_kind =
  | Dev_parse       (** inconsistent parse outcome *)
  | Dev_output      (** wrong output *)
  | Dev_exception   (** throws where majority doesn't, or vice versa *)
  | Dev_crash       (** runtime crash *)
  | Dev_timeout     (** runtime timeout (2t rule) *)

let deviation_kind_to_string = function
  | Dev_parse -> "ParseError"
  | Dev_output -> "WrongOutput"
  | Dev_exception -> "Exception"
  | Dev_crash -> "Crash"
  | Dev_timeout -> "TimeOut"

type deviation = {
  d_testbed : Engines.Engine.testbed;
  d_kind : deviation_kind;
  d_expected : string;   (** majority signature, rendered *)
  d_actual : string;
  d_behavior : string;   (** leaf label for the bug-filter tree *)
  d_fired : Quirk.Set.t; (** ground-truth quirks that fired on this testbed *)
}

type case_report = {
  cr_case : Testcase.t;
  cr_deviations : deviation list;
  cr_all_parse_failed : bool;
  cr_all_timeout : bool;
  cr_tested : int;  (** testbeds that actually ran the case *)
  cr_faulted : (string * Supervisor.fault_report) list;
      (** testbeds whose supervised execution exhausted its retry budget;
          excluded from the vote, never reported as deviations *)
  cr_skipped : int;  (** testbeds dropped from the sweep by quarantine *)
}

(* Behaviour label in the style of the paper's Fig. 6 leaves. *)
let behavior_label (sig_ : signature) (majority : signature) : string =
  match (sig_, majority) with
  | Sig_crash, _ -> "Crash"
  | Sig_timeout, _ -> "TimeOut"
  | Sig_exception (name, _), _ -> name
  | Sig_normal _, Sig_exception (name, _) -> "Missing" ^ name
  | Sig_normal _, _ -> "WrongOutput"
  | Sig_parse_fail, _ -> "ParseError"

let kind_of (sig_ : signature) (majority : signature) : deviation_kind =
  match (sig_, majority) with
  | Sig_crash, _ -> Dev_crash
  | Sig_timeout, _ -> Dev_timeout
  | Sig_parse_fail, _ | _, Sig_parse_fail -> Dev_parse
  | Sig_exception _, _ | _, Sig_exception _ -> Dev_exception
  | Sig_normal _, _ -> Dev_output

(* Convert a run result to a signature; timeouts via fuel exhaustion. *)
let signature_of_result (r : Run.result) : signature =
  if not r.Run.r_parsed then Sig_parse_fail
  else
    match r.Run.r_status with
    | Run.Sts_normal -> Sig_normal r.Run.r_output
    | Run.Sts_uncaught (name, _) -> Sig_exception (name, r.Run.r_output)
    | Run.Sts_crash _ -> Sig_crash
    | Run.Sts_timeout -> Sig_timeout

(* The campaign's per-testbed execution budget, the single source of truth
   threaded through [run_case], [Campaign.run] and [Feedback.run_rounds].
   300k fuel units is deliberately far below [Run.default_fuel] (2M, sized
   for one-off interactive runs): it is deep enough to reach every seeded
   quirk's trigger — the costliest, the Hermes reverse-fill cost model,
   burns ~100k on generator-sized arrays — while keeping the 2t rule's
   20k-fuel timeout floor meaningful and bounding the worst case of a
   102-testbed sweep per case. *)
let campaign_fuel = 300_000

(* Execution sharing is on unless the user opts out, either per call
   ([~share:false]) or globally via the COMFORT_NO_SHARE environment
   variable (any non-empty value) — the escape hatch CI uses to run the
   whole suite down the direct path. *)
let share_by_default () =
  match Sys.getenv_opt "COMFORT_NO_SHARE" with
  | None | Some "" -> true
  | Some _ -> false

(* The 2t rule (§3.4): an engine that terminated but consumed more than
   twice the slowest of the other engines — with a floor to avoid noise —
   is flagged as a timeout. Each run excludes only itself from the "other
   engines" pool, by position: excluding by fuel value would also drop
   unrelated engines that happened to burn the same amount, letting two
   equally-slow engines each hide the other and both be falsely flagged. *)
let apply_2t_rule (results : (Engines.Engine.testbed * Run.result) list) :
    (Engines.Engine.testbed * Run.result * signature) list =
  (* One pass computes the count and top-two max fuels of the
     normally-terminated pool; excluding run [i] is then O(1): the pool
     max without [i] is the second max when [i] holds the unique maximum
     and the max otherwise (a duplicated maximum leaves second = first,
     which is also what excluding one copy yields). This runs once per
     execution per case, so the old quadratic rebuild of the pool was a
     measurable slice of the vote stage. *)
  let nf = ref 0 and m1 = ref 0 and m2 = ref 0 in
  List.iter
    (fun (_, (r : Run.result)) ->
      if r.Run.r_parsed && r.Run.r_status = Run.Sts_normal then begin
        incr nf;
        let f = r.Run.r_fuel_used in
        if f >= !m1 then begin
          m2 := !m1;
          m1 := f
        end
        else if f > !m2 then m2 := f
      end)
    results;
  List.map
    (fun (tb, (r : Run.result)) ->
      let sig_ = signature_of_result r in
      let normal = r.Run.r_parsed && r.Run.r_status = Run.Sts_normal in
      let n_others = if normal then !nf - 1 else !nf in
      let t = if normal && r.Run.r_fuel_used = !m1 then !m2 else !m1 in
      let slow =
        sig_ <> Sig_timeout && n_others > 0
        && r.Run.r_fuel_used > max (2 * t) 20_000
      in
      (tb, r, if slow then Sig_timeout else sig_))
    results

(* --- the worker half: the supervised testbed sweep --- *)

(* The raw material of one differential test, before any vote: every
   applicable testbed's supervised execution outcome. Produced on a
   worker domain; judged (vote, quarantine filtering) on the driver. The
   split is what keeps supervision deterministic: fault draws depend only
   on (plan, testbed, case key), while every stateful decision — which
   testbeds are quarantined, what the majority is — happens in
   submission order on the driver. *)
type sweep = {
  sw_case : Testcase.t;
  sw_key : int;  (** the case key the fault draws were keyed by *)
  sw_execs :
    (Engines.Engine.testbed * Jsinterp.Run.result Supervisor.outcome) list;
}

let sweep_case ?(fuel = campaign_fuel) ?share ?resolve ?reach ?specialize
    ?plan ?policy ?supervisor ?(case_key = 0) ?cache
    (testbeds : Engines.Engine.testbed list) (tc : Testcase.t) : sweep =
  Run.Stage.time Run.Stage.sweep @@ fun () ->
  let share =
    match share with Some s -> s | None -> share_by_default ()
  in
  (* one execution-sharing cache per case: edition gating and the
     per-group parse are shared across the whole testbed sweep either
     way; with [share] on, whole executions are shared across behavioural
     equivalence classes too (DESIGN.md §8). [cache] lets the campaign
     driver share one cache across this case's several sweeps (one per
     mode group) so the base parses and their reach analyses run once per
     case, not once per group, and a strict-mode testbed can inherit a
     normal-mode execution that reached no mode-dependent point; it must
     have been built for [tc]'s source, on the calling domain. *)
  let ec =
    match cache with
    | Some ec -> ec
    | None -> Engines.Engine.Exec.cache tc.Testcase.tc_source
  in
  let fc = Engines.Engine.Exec.frontend_cache ec in
  (* edition gating: skip engines whose front end cannot express the
     program when the standard front end can *)
  let applicable =
    List.filter
      (fun (tb : Engines.Engine.testbed) ->
        Engines.Engine.Frontend.supports fc tb.Engines.Engine.tb_config)
      testbeds
  in
  let supervised = supervisor <> None || plan <> None || policy <> None in
  let execs =
    List.map
      (fun (tb : Engines.Engine.testbed) ->
        let thunk () =
          if share then
            Engines.Engine.Exec.run ~fuel ?resolve ?reach ?specialize ec tb
          else
            Engines.Engine.run ~fuel ?resolve ?reach ?specialize
              ~frontend:(Engines.Engine.Frontend.frontend fc tb)
              tb tc.Testcase.tc_source
        in
        let outcome =
          if not supervised then
            (* happy path: no supervision requested, run bare — a real
               escaped exception then still poisons the item, as before
               this layer existed. The testbed-id string is only built on
               the supervised path; at ~12.5 executions per case the
               sprintf was visible in the sweep-stage profile. *)
            Supervisor.Done (thunk (), Supervisor.ok_meta)
          else
            let tb_id = Engines.Engine.testbed_id tb in
            (* the racy peek: skipping work for an already-quarantined
               testbed is sound because the judge re-checks against
               driver state, and the quarantine set only grows *)
            match supervisor with
            | Some sup when Supervisor.quarantined_now sup tb_id ->
                Supervisor.Skipped
            | _ ->
                if plan = None && policy = None then
                  Supervisor.Done (thunk (), Supervisor.ok_meta)
                else
                  Supervisor.execute ?plan ?policy ~testbed_id:tb_id
                    ~case_key thunk
        in
        (tb, outcome))
      applicable
  in
  { sw_case = tc; sw_key = case_key; sw_execs = execs }

(* --- the driver half: quarantine filtering, the vote, the verdict --- *)

let judge ?supervisor (sw : sweep) : case_report =
  Run.Stage.time Run.Stage.vote @@ fun () ->
  let tc = sw.sw_case in
  (* split the sweep against *driver* quarantine state: results from
     testbeds quarantined by an earlier case are discarded whether or not
     the worker skipped them (it may have raced ahead), so the report is
     a pure function of the in-order case stream *)
  let results = ref [] and faulted = ref [] and skipped = ref 0 in
  (match supervisor with
  | None ->
      (* unsupervised: no quarantine to consult and no observation log to
         feed, so skip building the per-testbed id strings entirely (the
         ids are only needed for the rare Faulted/Skipped outcomes) *)
      List.iter
        (fun ((tb : Engines.Engine.testbed), outcome) ->
          match outcome with
          | Supervisor.Done (r, _) -> results := (tb, r) :: !results
          | Supervisor.Faulted fr ->
              faulted := (Engines.Engine.testbed_id tb, fr) :: !faulted
          | Supervisor.Skipped -> incr skipped)
        sw.sw_execs
  | Some sup ->
      let observations =
        List.filter_map
          (fun ((tb : Engines.Engine.testbed), outcome) ->
            let tb_id = Engines.Engine.testbed_id tb in
            if Supervisor.quarantined sup tb_id then begin
              incr skipped;
              Some (tb_id, Supervisor.Ob_skipped)
            end
            else
              match outcome with
              | Supervisor.Done (r, meta) ->
                  results := (tb, r) :: !results;
                  Some (tb_id, Supervisor.Ob_ok meta)
              | Supervisor.Faulted fr ->
                  faulted := (tb_id, fr) :: !faulted;
                  Some (tb_id, Supervisor.Ob_faulted fr)
              | Supervisor.Skipped ->
                  (* worker saw a quarantine the driver has not reached
                     yet; impossible under the monotone protocol, but
                     treat it as skipped rather than invent a result *)
                  incr skipped;
                  Some (tb_id, Supervisor.Ob_skipped))
          sw.sw_execs
      in
      Supervisor.observe sup ~case_key:sw.sw_key observations);
  let results = List.rev !results in
  let faulted = List.rev !faulted in
  let skipped = !skipped in
  let runs = apply_2t_rule results in
  let tested = List.length runs in
  let all_parse_failed =
    runs <> [] && List.for_all (fun (_, _, s) -> s = Sig_parse_fail) runs
  in
  let all_timeout =
    runs <> [] && List.for_all (fun (_, _, s) -> s = Sig_timeout) runs
  in
  if all_parse_failed || all_timeout || tested < 3 then
    {
      cr_case = tc;
      cr_deviations = [];
      cr_all_parse_failed = all_parse_failed;
      cr_all_timeout = all_timeout;
      cr_tested = tested;
      cr_faulted = faulted;
      cr_skipped = skipped;
    }
  else begin
    (* majority vote over signatures: one counting pass, then one
       deterministic scan in testbed order (first-seen wins ties) *)
    let counts : (signature, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (_, _, s) ->
        Hashtbl.replace counts s
          (1 + Option.value (Hashtbl.find_opt counts s) ~default:0))
      runs;
    let majority_sig, majority_n =
      List.fold_left
        (fun (bs, bn) (_, _, s) ->
          let n = Hashtbl.find counts s in
          if n > bn then (s, n) else (bs, bn))
        (Sig_parse_fail, 0) runs
    in
    let have_majority = 2 * majority_n > tested in
    let deviations =
      List.filter_map
        (fun ((tb : Engines.Engine.testbed), (r : Run.result), s) ->
          let is_anomaly =
            match s with
            | Sig_crash | Sig_timeout -> true (* always of interest *)
            | _ -> have_majority && s <> majority_sig
          in
          if not is_anomaly then None
          else
            Some
              {
                d_testbed = tb;
                d_kind = kind_of s majority_sig;
                d_expected = signature_to_string majority_sig;
                d_actual = signature_to_string s;
                d_behavior = behavior_label s majority_sig;
                d_fired = r.Run.r_fired;
              })
        runs
    in
    {
      cr_case = tc;
      cr_deviations = deviations;
      cr_all_parse_failed = false;
      cr_all_timeout = false;
      cr_tested = tested;
      cr_faulted = faulted;
      cr_skipped = skipped;
    }
  end

(* One differential test, sweep and judge in one go — the entry point for
   everything that tests a case outside a supervised campaign loop. With
   no [plan]/[policy]/[supervisor] this computes exactly what it did
   before the supervision layer existed. *)
let run_case ?fuel ?share ?resolve ?reach ?specialize ?plan ?policy
    ?supervisor ?case_key ?cache (testbeds : Engines.Engine.testbed list)
    (tc : Testcase.t) : case_report =
  judge ?supervisor
    (sweep_case ?fuel ?share ?resolve ?reach ?specialize ?plan ?policy
       ?supervisor ?case_key ?cache testbeds tc)

(* Field-wise report equality. [Quirk.Set.t] is a balanced tree whose
   shape depends on insertion order, so structural [(=)] on the whole
   record is unreliable; deviations are compared field by field with
   [Quirk.Set.equal] on the fired sets. *)
let deviation_equal (a : deviation) (b : deviation) : bool =
  Engines.Engine.testbed_id a.d_testbed = Engines.Engine.testbed_id b.d_testbed
  && a.d_kind = b.d_kind
  && a.d_expected = b.d_expected
  && a.d_actual = b.d_actual
  && a.d_behavior = b.d_behavior
  && Quirk.Set.equal a.d_fired b.d_fired

let report_equal (a : case_report) (b : case_report) : bool =
  a.cr_case.Testcase.tc_source = b.cr_case.Testcase.tc_source
  && a.cr_all_parse_failed = b.cr_all_parse_failed
  && a.cr_all_timeout = b.cr_all_timeout
  && a.cr_tested = b.cr_tested
  && List.length a.cr_deviations = List.length b.cr_deviations
  && List.for_all2 deviation_equal a.cr_deviations b.cr_deviations
  && List.map fst a.cr_faulted = List.map fst b.cr_faulted
  && a.cr_skipped = b.cr_skipped

exception Share_mismatch of string

(* The audit mode: run the case down both paths and fail loudly on any
   divergence. Returns the shared report so an auditing campaign can use
   it as the real result of the case. *)
let audit_case ?(fuel = campaign_fuel) ?resolve ?reach ?specialize
    (testbeds : Engines.Engine.testbed list) (tc : Testcase.t) : case_report =
  let shared =
    run_case ~fuel ~share:true ?resolve ?reach ?specialize testbeds tc
  in
  let direct =
    run_case ~fuel ~share:false ?resolve ?reach ?specialize testbeds tc
  in
  if not (report_equal shared direct) then
    raise
      (Share_mismatch
         (Printf.sprintf
            "execution sharing changed the report of case %d \
             (shared: %d deviations, direct: %d)\nsource:\n%s"
            tc.Testcase.tc_id
            (List.length shared.cr_deviations)
            (List.length direct.cr_deviations)
            tc.Testcase.tc_source));
  shared

exception Reach_unsound of string

(* The reach-audit mode: before producing the case's ordinary report,
   execute the case *directly* (no sharing, so every testbed's own
   r_touched is observed, not inherited) on every applicable testbed and
   assert the static reach set of its parse group covers the dynamic
   touched set. A violation is a soundness bug in [Analysis.Reach] —
   never a fault to absorb. *)
let audit_reach_case ?(fuel = campaign_fuel) ?share ?resolve ?reach
    ?specialize (testbeds : Engines.Engine.testbed list) (tc : Testcase.t) :
    case_report =
  let fc = Engines.Engine.Frontend.cache tc.Testcase.tc_source in
  List.iter
    (fun (tb : Engines.Engine.testbed) ->
      if Engines.Engine.Frontend.supports fc tb.Engines.Engine.tb_config
      then begin
        let fe = Engines.Engine.Frontend.frontend fc tb in
        let r =
          (* the dynamic touched set must be the testbed's own observation,
             so this probe runs generic: a specialised closure's baked-in
             answers record the same touched set, but the audit should not
             have to trust that *)
          Engines.Engine.run ~fuel ?resolve ?reach ~specialize:false
            ~frontend:fe tb tc.Testcase.tc_source
        in
        let static = Jsinterp.Run.reach_set fe in
        if not (Jsinterp.Quirk.Set.subset r.Run.r_touched static) then
          let missing =
            Jsinterp.Quirk.Set.diff r.Run.r_touched static
            |> Jsinterp.Quirk.Set.elements
            |> List.map Jsinterp.Quirk.to_string
            |> String.concat ", "
          in
          raise
            (Reach_unsound
               (Printf.sprintf
                  "static reach set of case %d misses checkpoints consulted \
                   on %s: %s\nsource:\n%s"
                  tc.Testcase.tc_id
                  (Engines.Engine.testbed_id tb)
                  missing tc.Testcase.tc_source))
      end)
    testbeds;
  run_case ~fuel ?share ?resolve ?reach ?specialize testbeds tc

exception Specialize_mismatch of string

(* The specialise-audit mode: run the case once down the quirk-specialised
   fast path and once down the generic compiled path, and fail loudly on
   any field-wise report divergence. This is the dynamic check backing the
   static argument of DESIGN.md §12: baked-in checkpoint answers, inline
   caches and copy-on-write realm reuse must all be invisible in results.
   Returns the specialised report so an auditing campaign can use it as
   the real result of the case. *)
let audit_specialize_case ?(fuel = campaign_fuel) ?share ?resolve ?reach
    (testbeds : Engines.Engine.testbed list) (tc : Testcase.t) : case_report =
  let fast =
    run_case ~fuel ?share ?resolve ?reach ~specialize:true testbeds tc
  in
  let generic =
    run_case ~fuel ?share ?resolve ?reach ~specialize:false testbeds tc
  in
  if not (report_equal fast generic) then
    raise
      (Specialize_mismatch
         (Printf.sprintf
            "quirk specialisation changed the report of case %d \
             (specialised: %d deviations, generic: %d)\nsource:\n%s"
            tc.Testcase.tc_id
            (List.length fast.cr_deviations)
            (List.length generic.cr_deviations)
            tc.Testcase.tc_source));
  fast
