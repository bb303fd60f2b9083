(* Slot-resolved compile-to-closure interpreter core (DESIGN.md §9).

   The tentpole claim mirrors execution sharing's: selecting the
   compiled core must never change a single observable — status, output,
   fuel, fired/touched quirk sets, coverage — on any testbed, for any
   program, including every deopt path. Coverage here:

   - full-corpus differential parity on the conforming reference with
     coverage recording on;
   - [Difftest.run_case] reports over all 102 testbeds, resolve on vs
     off, byte-identical for the whole corpus;
   - per-testbed field-wise result parity (no sharing, no voting) for a
     corpus sample and for every deopt fixture;
   - the deopt ladder: static per-program deopt (eval mention, top-level
     delete-on-binding), static per-function deopt (delete on a binding,
     frozen-name mutation), and the dynamic computed-eval trap that
     re-runs tree-walked mid-campaign (the AST has no [with] statement,
     so the classic fourth trigger cannot occur);
   - the compiled core's integer-keyed array access and array-receiver
     inline caches, which the tree-walker does not have: boundary keys,
     quirked stores and IC invalidation on all testbeds, and each
     fixture's checkpoints switched on and off in both modes;
   - realm snapshots: builtin mutations must not leak between compiled
     executions (the [Realm] copy is what makes the compiled core fast,
     so its isolation is part of this tentpole's soundness);
   - campaign-level invariance, the bench acceptance check in miniature. *)

open Helpers
open Jsinterp
module Engine = Engines.Engine

let parse src = Jsparse.Parser.parse_program src

(* Field-wise result equality; [Quirk.Set.t] needs its own equal and the
   coverage summary is a plain record. *)
let results_agree tag (tree : Run.result) (compiled : Run.result) =
  Alcotest.(check bool) (tag ^ ": parsed") tree.Run.r_parsed compiled.Run.r_parsed;
  Alcotest.(check (option string))
    (tag ^ ": parse error") tree.Run.r_parse_error compiled.Run.r_parse_error;
  Alcotest.(check string) (tag ^ ": status")
    (Run.status_to_string tree.Run.r_status)
    (Run.status_to_string compiled.Run.r_status);
  Alcotest.(check string) (tag ^ ": output") tree.Run.r_output compiled.Run.r_output;
  Alcotest.(check int) (tag ^ ": fuel") tree.Run.r_fuel_used compiled.Run.r_fuel_used;
  Alcotest.(check bool) (tag ^ ": fired") true
    (Quirk.Set.equal tree.Run.r_fired compiled.Run.r_fired);
  Alcotest.(check bool) (tag ^ ": touched") true
    (Quirk.Set.equal tree.Run.r_touched compiled.Run.r_touched);
  Alcotest.(check bool) (tag ^ ": coverage") true
    (tree.Run.r_coverage = compiled.Run.r_coverage)

(* --- corpus parity --- *)

let corpus_parity_reference () =
  List.iteri
    (fun i src ->
      let tree = Run.run ~coverage:true ~resolve:false src in
      let compiled = Run.run ~coverage:true ~resolve:true src in
      results_agree (Printf.sprintf "corpus[%d]" i) tree compiled)
    Lm.Js_corpus.programs

let corpus_run_case_resolve_invariant () =
  (* the differential report over all 102 testbeds — votes, deviations,
     fired sets — must be byte-identical with the compiled core on *)
  List.iteri
    (fun i src ->
      let tc = Comfort.Testcase.make src in
      let compiled =
        Comfort.Difftest.run_case ~resolve:true Engine.all_testbeds tc
      in
      let tree =
        Comfort.Difftest.run_case ~resolve:false Engine.all_testbeds tc
      in
      Alcotest.(check bool)
        (Printf.sprintf "corpus[%d]: reports equal" i)
        true
        (Comfort.Difftest.report_equal compiled tree))
    Lm.Js_corpus.programs

(* every 9th corpus program, field-checked on every individual testbed
   with sharing and voting out of the way *)
let corpus_sample_parity_all_testbeds () =
  let sample =
    List.filteri (fun i _ -> i mod 9 = 0) Lm.Js_corpus.programs
  in
  List.iteri
    (fun i src ->
      List.iter
        (fun tb ->
          let tag =
            Printf.sprintf "sample[%d] %s" i (Engine.testbed_id tb)
          in
          let tree = Engine.run ~resolve:false tb src in
          let compiled = Engine.run ~resolve:true tb src in
          results_agree tag tree compiled)
        Engine.all_testbeds)
    sample

(* --- the deopt ladder --- *)

(* Each fixture names the deopt mechanism it exercises. The AST has no
   [with] statement (the parser rejects it), so the classic fourth
   dynamic-scope trigger cannot arise. *)
let deopt_fixtures =
  [
    ( "direct eval introducing a var (program deopt)",
      {|eval("var hidden = 41;");
print(hidden + 1);|} );
    ( "eval mentioned but unreached (program deopt)",
      {|var f = function () { return eval("1 + 1"); };
print("never called: " + (typeof f));|} );
    ( "top-level delete on a binding (program deopt)",
      {|var gone = 1;
print(delete gone);
print(typeof gone);|} );
    ( "delete on a binding inside a function (function deopt)",
      {|var keep = 7;
function zap() { return delete keep; }
print(zap());
print(keep);|} );
    ( "named funcexpr frozen-name mutation (function deopt)",
      {|var f = function self() {
  self = "overwritten";
  return typeof self;
};
print(f());|} );
    ( "for-in over a frozen name (function deopt)",
      {|var f = function self() {
  for (self in { a: 1 }) { }
  return typeof self;
};
print(f());|} );
    ( "computed eval the static scan misses (dynamic trap)",
      {|var name = "ev" + "al";
this[name]("var sneaky = 5;");
print(sneaky);|} );
  ]

let deopt_fixtures_reach_parity () =
  List.iter
    (fun (tag, src) ->
      (* reference with coverage, plus a quirked testbed sweep: deopted
         and trap re-runs must stay bit-for-bit too *)
      let tree = Run.run ~coverage:true ~resolve:false src in
      let compiled = Run.run ~coverage:true ~resolve:true src in
      results_agree tag tree compiled;
      List.iter
        (fun tb ->
          let tree = Engine.run ~resolve:false tb src in
          let compiled = Engine.run ~resolve:true tb src in
          results_agree (tag ^ " @ " ^ Engine.testbed_id tb) tree compiled)
        Engine.all_testbeds)
    deopt_fixtures

let frozen_name_quirk_parity () =
  (* the frozen-name mutation deopt must preserve the quirk fork: on a
     conforming engine assignment is a silent no-op (sloppy) or throws
     (strict); with Q_named_funcexpr_binding_mutable it lands *)
  let src =
    {|var f = function self() { self = 1; return typeof self; };
print(f());|}
  in
  let quirks = quirks_of [ Quirk.Q_named_funcexpr_binding_mutable ] in
  List.iter
    (fun qs ->
      let tree = Run.run ~quirks:qs ~resolve:false src in
      let compiled = Run.run ~quirks:qs ~resolve:true src in
      results_agree
        (Printf.sprintf "frozen mutation, %d quirks" (Quirk.Set.cardinal qs))
        tree compiled)
    [ Quirk.Set.empty; quirks ];
  Alcotest.(check string) "quirk flips the binding" "number\n"
    (Run.run ~quirks ~resolve:true src).Run.r_output;
  Alcotest.(check string) "conforming keeps it frozen" "function\n"
    (Run.run ~resolve:true src).Run.r_output

(* --- integer-keyed array access and array-receiver inline caches --- *)

(* The compiled core sends [Num] keys that are canonical indices straight
   to array storage, and its inline caches accept arrays for named keys.
   Each fixture names the boundary it probes and the checkpoints on that
   boundary; the tree-walker, which keeps the string-keyed path, is the
   oracle. *)
let array_fixtures =
  [
    ( "numeric keys at the index boundary",
      {|var a = [10, 20, 30];
var keys = [-0, 1.5, NaN, "1", "01", 1e15, 1e21, 4294967295, -1, 2, 3, 10000001];
for (var i = 0; i < keys.length; i++) {
  var k = keys[i];
  try { a[k] = "w" + i; print(k + " -> " + a[k]); } catch (e) { print(k + " " + e.name); }
}
print(a.length + " " + a[0] + " " + a["-1"] + " " + a["1e+21"] + " " + a[1e15]);
print(Object.keys(a));|},
      [] );
    ( "boolean key on arrays",
      {|var a = [1, 2];
a[true] = 3;
a[false] = 4;
print(a.length + ":" + a[true] + ":" + a[2] + ":" + a["false"]);
var t = new Uint8Array(2);
t[true] = 5;
print(t.length + ":" + t[true]);|},
      [ Quirk.Q_bool_prop_appends_to_array ] );
    ( "typed-array stores past the end",
      {|var t = new Uint8Array(4);
for (var i = 0; i < 6; i++) { t[i] = i * 100; }
print(t[0] + "," + t[3] + "," + t[4] + "," + t.length);
var f = new Float64Array(2);
f[1] = 0.5;
f[-0] = 2;
print(f[0] + f[1]);|},
      [ Quirk.Q_typedarray_oob_write_crash ] );
    ( "frozen, sealed and non-extensible arrays",
      {|function attempt(what, g) { try { g(); } catch (e) { print(what + " " + e.name); } }
var f = [1, 2, 3];
Object.freeze(f);
attempt("f0", function () { f[0] = 9; });
attempt("f3", function () { f[3] = 4; });
attempt("f1++", function () { f[1]++; });
attempt("f2+=", function () { f[2] += 5; });
print(f.join(",") + ":" + f.length + ":" + Object.isFrozen(f));
var s = [1, 2];
Object.seal(s);
attempt("s0", function () { s[0] = 7; });
attempt("s2", function () { s[2] = 8; });
print(s.join(",") + ":" + s.length);
var n = [1];
Object.preventExtensions(n);
attempt("n0", function () { n[0] = 5; });
attempt("n1", function () { n[1] = 6; });
print(n.join(",") + ":" + n.length);
f[0] = 42;
print(f[0]);|},
      [ Quirk.Q_freeze_array_elements_writable ] );
    ( "string receivers and a countdown fill",
      {|var s = "hello";
var acc = "";
for (var i = -1; i < 7; i++) acc += s[i] + "|";
print(acc + new String("abc")[1]);
try { s[0] = "j"; } catch (e) { print(e.name); }
print(s);
var r = [];
for (var j = 60; j >= 0; j--) r[j] = j * 2;
print(r.length + ":" + r[0] + ":" + r[60]);|},
      [ Quirk.Q_array_reverse_fill_quadratic ] );
    ( "compound and update stores",
      {|var a = [1, 2, 3];
for (var i = 0; i < 3; i++) { a[i] += 1; a[i]++; ++a[i]; a[i] *= 2; }
a[5]++;
a[7] += "x";
print(a.join(","));
var o = {};
o[1] = 1;
o[1]++;
print(o[1] + ":" + o["1"]);|},
      [] );
    ( "instance push reassigned mid-loop",
      {|var out = [];
for (var i = 0; i < 10; i++) {
  out.push(i);
  if (i === 4) out.push = function (v) { this[this.length] = -v; return this.length; };
}
print(out.join(","));|},
      [] );
    ( "Array.prototype.push reassigned mid-loop",
      {|var out = [];
var orig = Array.prototype.push;
for (var i = 0; i < 6; i++) {
  out.push(i);
  if (i === 2) Array.prototype.push = function (v) { this[this.length] = v * 10; return this.length; };
}
Array.prototype.push = orig;
out.push(99);
print(out.join(","));|},
      [] );
    ( "getters defined over cached named keys",
      {|var a = [1, 2];
a.tag = 1;
var s = 0;
for (var i = 0; i < 6; i++) {
  s = s + a.tag;
  a.tag = a.tag + 1;
  if (i === 2) Object.defineProperty(a, "tag", { get: function () { return 100; } });
}
print(s + ":" + a.tag);
var b = [];
var calls = 0;
for (var j = 0; j < 4; j++) {
  b.push(j);
  if (j === 1)
    Object.defineProperty(Array.prototype, "push", {
      get: function () { calls++; return function (v) { return 0; }; }
    });
}
print(b.join(",") + ":" + calls);|},
      [] );
    ( "length answered by storage, not by an own property",
      {|var t = new Uint8Array(3);
Object.defineProperty(t, "length", { value: 7 });
var s = 0;
for (var i = 0; i < 4; i++) s = s + t.length;
var w = new String("abcd");
for (var j = 0; j < 4; j++) s = s + w.length;
var a = [1, 2, 3];
for (var k = 0; k < 4; k++) { s = s + a.length; a.length = a.length + 1; }
print(s + ":" + a.length);|},
      [] );
    ( "indexed loop running out of fuel",
      {|var a = [];
var i = 0;
while (true) { a[i] = i; i = a[i] + 1; a[a.length] = a[i - 1]; }|},
      [] );
  ]

(* tree-walked vs compiled (generic and specialised), field for field *)
let agree_three_ways tag run =
  let tree = run ~resolve:false ~specialize:false in
  results_agree (tag ^ " [generic]") tree (run ~resolve:true ~specialize:false);
  results_agree (tag ^ " [specialised]") tree
    (run ~resolve:true ~specialize:true)

let array_fixtures_parity () =
  List.iter
    (fun (tag, src, _) ->
      List.iter
        (fun tb ->
          agree_three_ways
            (tag ^ " @ " ^ Engine.testbed_id tb)
            (fun ~resolve ~specialize ->
              Engine.run ~fuel:100_000 ~resolve ~specialize tb src))
        Engine.all_testbeds)
    array_fixtures

let array_fixtures_quirk_forks () =
  (* each fixture's checkpoints, switched on and off explicitly in both
     modes — the all-testbed sweep need not cover every combination —
     and the quirk must actually fire, or the fixture misses its path *)
  List.iter
    (fun (tag, src, qs) ->
      List.iter
        (fun strict ->
          List.iter
            (fun quirks ->
              let tag =
                Printf.sprintf "%s, strict=%b, %d quirks" tag strict
                  (List.length quirks)
              in
              agree_three_ways tag (fun ~resolve ~specialize ->
                  Run.run ~quirks:(quirks_of quirks) ~strict ~fuel:100_000
                    ~resolve ~specialize src);
              List.iter
                (fun q ->
                  Alcotest.(check bool) (tag ^ ": fired") true
                    (Quirk.Set.mem q
                       (Run.run ~quirks:(quirks_of quirks) ~strict
                          ~fuel:100_000 ~resolve:true ~specialize:true src)
                         .Run.r_fired))
                quirks)
            [ []; qs ])
        [ false; true ])
    array_fixtures

(* --- global identifier reads ---

   A name that resolves to no binding is read from the global object in
   one walk of its property chain ([Ops.find_property]). Getters must run
   exactly once per read, [typeof] of a missing name must not throw, and
   fuel must not move. *)
let global_read_fixtures =
  [
    ( "a global getter",
      {|var calls = 0;
Object.defineProperty(this, "tick", { get: function () { calls = calls + 1; return calls * 10; } });
print(tick + tick);
print(typeof tick);
print(calls);|} );
    ( "a missing global under typeof",
      {|print(typeof nowhere);
print(typeof Math + ":" + typeof Math.abs);
try { print(nowhere); } catch (e) { print(e.name); }|} );
    ( "a Math.abs loop",
      {|var s = 0;
for (var i = -50; i < 50; i++) s = s + Math.abs(i);
print(s);|} );
  ]

let global_read_fixtures_parity () =
  List.iter
    (fun (tag, src) ->
      let tree = Run.run ~coverage:true ~resolve:false src in
      results_agree tag tree (Run.run ~coverage:true ~resolve:true src);
      Alcotest.(check string) (tag ^ ": runs to completion") "normal"
        (Run.status_to_string tree.Run.r_status);
      List.iter
        (fun tb ->
          agree_three_ways
            (tag ^ " @ " ^ Engine.testbed_id tb)
            (fun ~resolve ~specialize ->
              Engine.run ~fuel:100_000 ~resolve ~specialize tb src))
        Engine.all_testbeds)
    global_read_fixtures;
  Alcotest.(check string) "getter output" "30\nnumber\n3\n"
    (Run.run (snd (List.hd global_read_fixtures))).Run.r_output

(* --- static compile classification --- *)

let compile_classifies_programs () =
  let slotted src = (Compile.compile (parse src)).Compile.cp_slotted in
  let deopt_fns src = (Compile.compile (parse src)).Compile.cp_deopt_fns in
  Alcotest.(check bool) "plain program is slotted" true
    (slotted "var x = 1; print(x);");
  Alcotest.(check bool) "eval mention deopts the program" false
    (slotted "eval(\"1\");");
  Alcotest.(check bool) "member eval deopts the program" false
    (slotted "this[\"eval\"](\"1\");");
  Alcotest.(check bool) "top-level delete-ident deopts the program" false
    (slotted "var x = 1; delete x;");
  Alcotest.(check int) "plain functions stay compiled" 0
    (deopt_fns "function f() { return 1; } print(f());");
  Alcotest.(check int) "delete-on-binding deopts one function" 1
    (deopt_fns "var y = 1; function f() { return delete y; } print(f());");
  Alcotest.(check int) "frozen-name mutation deopts one function" 1
    (deopt_fns "var f = function self() { self = 1; }; f();")

let dynamic_trap_still_counts_one_execution () =
  (* the tree re-run after [Deopt_to_tree] replays the same program; it
     must not inflate the executions-per-case accounting that the
     sharing bench reports *)
  let src = {|var n = "ev" + "al"; this[n]("var v = 3;"); print(v);|} in
  let before = Run.run_count () in
  let r = Run.run ~resolve:true src in
  Alcotest.(check int) "one execution recorded" (before + 1) (Run.run_count ());
  Alcotest.(check string) "trap produced the eval effect" "3\n" r.Run.r_output

(* --- realm snapshot isolation --- *)

let realm_snapshots_are_isolated () =
  (* a compiled execution runs in a realm copied from the shared
     template; builtin mutations must die with the execution *)
  let vandal =
    {|String.prototype.charAt = function () { return "Z"; };
Array.prototype.extra = 1;
print("a".charAt(0));|}
  in
  let probe = {|print("a".charAt(0)); print([].extra);|} in
  Alcotest.(check string) "vandal sees its own mutation" "Z\n"
    (Run.run ~resolve:true vandal).Run.r_output;
  Alcotest.(check string) "vandal again, fresh realm" "Z\n"
    (Run.run ~resolve:true vandal).Run.r_output;
  Alcotest.(check string) "later execution is unaffected" "a\nundefined\n"
    (Run.run ~resolve:true probe).Run.r_output;
  (* and the snapshot realm itself is indistinguishable from a freshly
     installed one *)
  results_agree "probe parity"
    (Run.run ~coverage:true ~resolve:false probe)
    (Run.run ~coverage:true ~resolve:true probe)

(* --- campaign-level invariance --- *)

let disc_key (d : Comfort.Campaign.discovery) =
  ( Engines.Registry.engine_name d.Comfort.Campaign.disc_engine,
    Quirk.to_string d.Comfort.Campaign.disc_quirk,
    d.Comfort.Campaign.disc_at,
    d.Comfort.Campaign.disc_behavior,
    d.Comfort.Campaign.disc_mode )

let campaign_resolve_invariant () =
  (* (share x resolve) grid on one seed: same discoveries, timeline and
     filter counts everywhere — the bench's identical_results check in
     miniature *)
  let campaign ~share ~resolve =
    Comfort.Campaign.run ~budget:80 ~share ~resolve ~jobs:1
      (Comfort.Campaign.comfort_fuzzer ~seed:31 ())
  in
  let base = campaign ~share:false ~resolve:false in
  List.iter
    (fun (share, resolve) ->
      let r = campaign ~share ~resolve in
      let tag = Printf.sprintf "share=%b resolve=%b" share resolve in
      Alcotest.(check bool) (tag ^ ": same discoveries") true
        (List.map disc_key r.Comfort.Campaign.cp_discoveries
        = List.map disc_key base.Comfort.Campaign.cp_discoveries);
      Alcotest.(check bool) (tag ^ ": same timeline") true
        (r.Comfort.Campaign.cp_timeline = base.Comfort.Campaign.cp_timeline);
      Alcotest.(check int) (tag ^ ": same filtered repeats")
        base.Comfort.Campaign.cp_filtered_repeats
        r.Comfort.Campaign.cp_filtered_repeats)
    [ (false, true); (true, false); (true, true) ]

let audit_share_accepts_resolve () =
  (* the sharing cross-check must hold under the compiled core too *)
  List.iter
    (fun (_, src) ->
      let tc = Comfort.Testcase.make src in
      ignore
        (Comfort.Difftest.audit_case ~resolve:true Engine.all_testbeds tc))
    deopt_fixtures

let suite =
  [
    case "corpus: reference parity with coverage" corpus_parity_reference;
    case "corpus: run_case reports are resolve-invariant"
      corpus_run_case_resolve_invariant;
    case "corpus sample: per-testbed field parity"
      corpus_sample_parity_all_testbeds;
    case "deopt fixtures: parity on reference and all testbeds"
      deopt_fixtures_reach_parity;
    case "array fixtures: parity on all testbeds" array_fixtures_parity;
    case "array fixtures: quirk forks in both modes"
      array_fixtures_quirk_forks;
    case "global identifier reads: parity on all testbeds"
      global_read_fixtures_parity;
    case "frozen-name mutation quirk forks identically"
      frozen_name_quirk_parity;
    case "compile classifies slotted/deopted programs"
      compile_classifies_programs;
    case "dynamic eval trap counts as one execution"
      dynamic_trap_still_counts_one_execution;
    case "realm snapshots are isolated" realm_snapshots_are_isolated;
    case "campaigns are resolve-invariant" campaign_resolve_invariant;
    case "audit mode passes with the compiled core" audit_share_accepts_resolve;
  ]
