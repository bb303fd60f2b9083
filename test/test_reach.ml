(* Static checkpoint-reachability analysis (DESIGN.md §11).

   The analysis is a diagnostic ([comfort analyze --quirks]) and the home
   of [observes_this]; it is useful only while it stays sound (static ⊇
   every dynamic touched set) and precise enough to narrow anything.
   Coverage here:

   - soundness over a handwritten corpus plus a fuzzer batch, asserted
     per front end and across all 102 testbeds, each execution against
     the reach set of the front end it ran;
   - a precision floor: ordinary programs get a strict subset of the
     domain's top, while [eval] collapses to top;
   - the strict-mode widening and the strict-[this] rule. *)

open Helpers
open Jsinterp
module Engine = Engines.Engine
module Reach = Analysis.Reach

(* quirk-rich §5.2-flavoured traffic, parse failures, strict-only
   behaviour, steering control flow — the same spread the sharing suite
   sweeps, plus sources aimed at the five compiled consultation sites *)
let corpus =
  [
    "print(1 + 1);";
    {|var s = "abc".charAt(-1);
if (s !== "") print([3,1,2].sort());
else print("no");|};
    {|var o = { a: 1 }; print(Object.keys(o));
print("anA".split(/^A/)); print((-634619).toFixed(2));
print([10,9,1].sort()); print("abc".charAt(-1) === "");|};
    {|var foo = function(num) { var p = num.toFixed(-2); print(p); };
foo(-634619);|};
    "for (var i = 0; i < 3; i++)";
    "function f(a, a) { return a; } print(f(1, 2));";
    (* unary negation reaching 0 consults the neg-zero codegen site *)
    "var z = 0; print(1 / -z);";
    (* named function expression rebinding consults the NFE site *)
    {|var f = function g() { g = 1; return typeof g; }; print(f());|};
    (* += string append in a loop consults the optimizer-drop site *)
    {|var s = ""; for (var i = 0; i < 200; i++) s += "x";
print(s.length);|};
    {|"use strict"; function f() { return this; } print(f() === undefined);|};
    (* a callee that never reads [this] does not consult the strict-this
       site; one that reads it through a nested arrow does *)
    "function f(a) { return a; } print(f(1));";
    "function f() { return (() => this)(); } print(f() === undefined);";
  ]

(* A front end's static reach set: the analysis of its program in the
   given mode, joined with the parse-stage quirks it sank (a parse
   failure consults nothing at run time) *)
let reach_set ~strict (fe : Run.frontend) =
  match fe.Run.fe_program with
  | Error _ -> fe.Run.fe_fired
  | Ok prog -> Quirk.Set.union fe.Run.fe_fired (Reach.checkpoints ~strict prog)

let sound_on_every_frontend () =
  (* static ⊇ dynamic touched, per parse group, under quirk sets drawn
     from real testbeds *)
  List.iter
    (fun src ->
      List.iter
        (fun (tb : Engine.testbed) ->
          let strict = tb.Engine.tb_mode = Engine.Strict in
          let quirks = tb.Engine.tb_config.Engines.Registry.cfg_quirks in
          let fe =
            Run.parse_frontend ~quirks ~strict
              ~parse_opts:(Engines.Registry.parse_opts_of_config tb.Engine.tb_config)
              src
          in
          let ex = Run.run_exec ~quirks ~strict ~frontend:fe src in
          Alcotest.(check bool)
            (Printf.sprintf "%s sound on %s" (Engine.testbed_id tb) src)
            true
            (Quirk.Set.subset ex.Run.ex_result.Run.r_touched
               (reach_set ~strict fe)))
        Engine.all_testbeds)
    corpus

(* The reach audit: execute the case directly (no sharing, so every
   testbed's own touched set is observed, not inherited) on every
   applicable testbed, on the front end the campaign would give it, and
   assert the static reach set of that front end in the testbed's mode
   covers the dynamic touched set. *)
let audit_reach_case testbeds (tc : Comfort.Testcase.t) =
  let src = tc.Comfort.Testcase.tc_source in
  let fc = Engine.Frontend.cache src in
  List.iter
    (fun (tb : Engine.testbed) ->
      if Engine.Frontend.supports fc tb.Engine.tb_config then begin
        let fe = Engine.Frontend.frontend fc tb in
        let r =
          Engine.run ~fuel:Comfort.Difftest.campaign_fuel ~frontend:fe tb src
        in
        let static = reach_set ~strict:(tb.Engine.tb_mode = Engine.Strict) fe in
        let missing = Quirk.Set.diff r.Run.r_touched static in
        if not (Quirk.Set.is_empty missing) then
          Alcotest.failf "static reach misses %s on %s:\n%s"
            (String.concat ", "
               (List.map Quirk.to_string (Quirk.Set.elements missing)))
            (Engine.testbed_id tb) src
      end)
    testbeds

let audit_accepts_corpus () =
  List.iter
    (fun src ->
      audit_reach_case Engine.all_testbeds (Comfort.Testcase.make src))
    corpus

let audit_accepts_fuzzer_batch () =
  let batch = (Comfort.Campaign.comfort_fuzzer ~seed:7 ()).Comfort.Campaign.fz_batch 15 in
  Alcotest.(check bool) "batch non-empty" true (List.length batch >= 15);
  List.iter
    (fun tc -> audit_reach_case Engine.all_testbeds tc)
    batch

let precision_floor () =
  (* the analysis must actually narrow: on ordinary programs the static
     set is a strict subset of top, never top itself *)
  let narrowed =
    List.filter
      (fun src ->
        let s = Reach.checkpoints_src src in
        (not (Reach.is_top s)) && Quirk.Set.cardinal s < Quirk.Set.cardinal Reach.top)
      corpus
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d corpus programs narrowed" (List.length narrowed)
       (List.length corpus))
    true
    (List.length narrowed >= 8);
  (* a trivial program's set is small in absolute terms too *)
  Alcotest.(check bool) "print(1+1) reaches < a quarter of the domain" true
    (Quirk.Set.cardinal (Reach.checkpoints_src "print(1 + 1);") * 4
    < Quirk.Set.cardinal Reach.top)

let dynamic_constructs_are_top () =
  Alcotest.(check bool) "eval is top" true
    (Reach.is_top (Reach.checkpoints_src "eval('print(1)');"));
  Alcotest.(check bool) "indirect eval is top" true
    (Reach.is_top (Reach.checkpoints_src "var e = eval; e('1');"))

let strict_widens () =
  List.iter
    (fun src ->
      Alcotest.(check bool) (src ^ ": strict set widens the sloppy set") true
        (Quirk.Set.subset
           (Reach.checkpoints_src src)
           (Reach.checkpoints_src ~strict:true src)))
    corpus

let strict_this_needs_an_observer () =
  (* [Q_strict_this_is_global] is reachable only through a function that
     can observe its [this] ([Reach.observes_this]) *)
  let has src =
    Quirk.Set.mem Quirk.Q_strict_this_is_global
      (Reach.checkpoints_src ~strict:true src)
  in
  Alcotest.(check bool) "callee ignores this" false
    (has "function f(a){return a} f(1)");
  Alcotest.(check bool) "callee returns this" true
    (has "function f(a){return this} f(1)");
  Alcotest.(check bool) "arrow reads this at top level" false
    (has "var g = () => this; g();");
  Alcotest.(check bool) "nested arrow reads the callee's this" true
    (has "function f() { return (() => this)(); } f();");
  Alcotest.(check bool) "sloppy analysis never adds it" false
    (Quirk.Set.mem Quirk.Q_strict_this_is_global
       (Reach.checkpoints_src "function f(a){return this} f(1)"))

let suite =
  [
    case "static reach is sound on every front end" sound_on_every_frontend;
    case "audit_reach_case accepts the corpus" audit_accepts_corpus;
    case "audit_reach_case accepts a fuzzer batch" audit_accepts_fuzzer_batch;
    case "precision floor: ordinary programs narrow" precision_floor;
    case "eval collapses to top" dynamic_constructs_are_top;
    case "strict analysis widens the sloppy one" strict_widens;
    case "strict this needs a callee that observes it"
      strict_this_needs_an_observer;
  ]
