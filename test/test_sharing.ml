(* Execution sharing (DESIGN.md §8).

   The tentpole claim is behavioural: collapsing the 102-testbed sweep
   into quirk-reachability equivalence classes must never change a single
   observable result. Coverage here:

   - the [Run.shares_class] fixpoint on a program where one quirk's
     firing steers control flow into a second quirk checkpoint — the
     exact situation where predicting reachability instead of observing
     it would be unsound;
   - [Engine.Exec] vs direct [Engine.run] over all 102 testbeds,
     field-wise and in both testbed orders, plus the executed/shared
     accounting and the >=4x execution reduction the bench records;
   - sharing across modes: one fixture per mode-dependent point, each of
     which must keep its representative's result inside its own mode;
   - [Difftest.run_case] and full [Campaign.run]s with sharing on vs off
     at 1 and 4 jobs, byte-identical reports throughout;
   - the audit mode accepting a clean sample. *)

open Helpers
open Jsinterp
module Engine = Engines.Engine

(* charAt(-1) normally yields "", so the sort checkpoint below is only
   reached when Q_charat_negative_wraps fires and flips the branch *)
let steering_src =
  {|var s = "abc".charAt(-1);
if (s !== "") print([3,1,2].sort());
else print("no");|}

let fixpoint_splits_on_exposed_checkpoint () =
  (* representative without quirks: the charAt checkpoint is consulted,
     the sort checkpoint is unreachable *)
  let rep = Run.run_exec ~quirks:Quirk.Set.empty steering_src in
  Alcotest.(check bool) "charAt checkpoint touched" true
    (Quirk.Set.mem Quirk.Q_charat_negative_wraps
       (Lazy.force rep.Run.ex_touched));
  Alcotest.(check bool) "sort checkpoint not reached" false
    (Quirk.Set.mem Quirk.Q_array_sort_numeric_default
       (Lazy.force rep.Run.ex_touched));
  (* a config where the charAt quirk is present differs on a touched
     checkpoint: it must split into its own class *)
  Alcotest.(check bool) "charAt config splits" false
    (Run.shares_class
       ~quirks:(quirks_of [ Quirk.Q_charat_negative_wraps ])
       rep);
  (* a config differing only in the unreached sort quirk shares *)
  Alcotest.(check bool) "sort-only config shares" true
    (Run.shares_class
       ~quirks:(quirks_of [ Quirk.Q_array_sort_numeric_default ])
       rep);
  (* the split representative reaches the second checkpoint... *)
  let rep2 =
    Run.run_exec
      ~quirks:(quirks_of [ Quirk.Q_charat_negative_wraps ])
      steering_src
  in
  Alcotest.(check bool) "firing charAt exposes the sort checkpoint" true
    (Quirk.Set.mem Quirk.Q_array_sort_numeric_default
       (Lazy.force rep2.Run.ex_touched));
  (* ...so a config that also carries the sort quirk splits again, while
     one differing only in a still-unreached quirk shares *)
  Alcotest.(check bool) "charAt+sort splits from charAt" false
    (Run.shares_class
       ~quirks:
         (quirks_of
            [ Quirk.Q_charat_negative_wraps; Quirk.Q_array_sort_numeric_default ])
       rep2);
  Alcotest.(check bool) "charAt+unreached quirk shares" true
    (Run.shares_class
       ~quirks:
         (quirks_of
            [ Quirk.Q_charat_negative_wraps; Quirk.Q_tofixed_no_rangeerror ])
       rep2)

let shared_result_equals_direct_result () =
  (* a member inheriting [rep2]'s execution must get exactly the result a
     direct run under its own quirk set produces *)
  let quirks =
    quirks_of [ Quirk.Q_charat_negative_wraps; Quirk.Q_tofixed_no_rangeerror ]
  in
  let fe = Run.parse_frontend ~quirks steering_src in
  let rep2 =
    Run.run_exec
      ~quirks:(quirks_of [ Quirk.Q_charat_negative_wraps ])
      ~frontend:fe steering_src
  in
  let shared = Run.share ~frontend:fe ~quirks rep2 in
  let direct = Run.run ~quirks steering_src in
  Alcotest.(check string) "output" direct.Run.r_output shared.Run.r_output;
  Alcotest.(check string) "status"
    (Run.status_to_string direct.Run.r_status)
    (Run.status_to_string shared.Run.r_status);
  Alcotest.(check int) "fuel" direct.Run.r_fuel_used shared.Run.r_fuel_used;
  Alcotest.(check bool) "fired" true
    (Quirk.Set.equal direct.Run.r_fired shared.Run.r_fired);
  Alcotest.(check bool) "touched" true
    (Quirk.Set.equal direct.Run.r_touched shared.Run.r_touched)

let run_count_counts_real_executions () =
  let before = Run.run_count () in
  ignore (Run.run "print(1);");
  Alcotest.(check int) "a direct run is one execution" (before + 1)
    (Run.run_count ());
  (* parse failures never reach the interpreter *)
  ignore (Run.run "var = ;");
  Alcotest.(check int) "a parse failure is no execution" (before + 1)
    (Run.run_count ())

(* One fixture per run-time point that calls [Value.touch_mode]. Each
   behaves differently in the two modes, so a representative that reached
   it must not lend its result to the other mode. The last one reaches the
   tree-walker's [this] binding: the write to [g] never runs, but it deopts
   the function. *)
let mode_touch_sources =
  [
    ("undeclared assignment", "undeclared = 5; print(undeclared);");
    ( "read-only property write",
      {|var o = {}; Object.defineProperty(o, "x", { value: 1 });
o.x = 2; print(o.x);|} );
    ( "write blocked by a read-only prototype property",
      {|var p = {}; Object.defineProperty(p, "x", { value: 1 });
var o = Object.create(p); o.x = 2; print(o.x);|} );
    ( "new property on a non-extensible object",
      "var o = Object.preventExtensions({}); o.y = 1; print(o.y);" );
    ( "read-only array length",
      "var a = Object.freeze([1, 2]); a.length = 0; print(a.length);" );
    ( "frozen array element",
      "var a = Object.freeze([1, 2]); a[0] = 9; print(a[0]);" );
    ( "growth past a fixed array length",
      {|var a = [1]; Object.defineProperty(a, "length", { writable: false });
a[3] = 1; print(a.length);|} );
    ( "growth of a non-extensible array",
      "var a = Object.seal([1]); a[3] = 1; print(a.length);" );
    ("primitive property store", {|var s = "abc"; s.foo = 1; print(s.foo);|});
    ( "non-configurable delete",
      {|var o = {}; Object.defineProperty(o, "k", { value: 1 });
print(delete o.k);|} );
    ( "named function expression self-assign",
      "var f = function g() { g = 1; return typeof g; }; print(f());" );
    ( "plain call of a callee that reads this",
      "function f() { return this === undefined; } print(f());" );
    ( "plain call of a deopted callee that reads this",
      {|var f = function g() { if (false) g = 1; return this === undefined; };
print(f());|} );
  ]

(* the §5.2-flavoured sources the sweep-level checks run: plain code, the
   steering program above, quirk-rich builtin traffic, a thrown error, a
   parse-stage quirk trigger, and strict-only behaviour — then four
   runtime parses, whose outcome depends on the engine's parse options
   (a parser quirk's acceptance or the ES5 profile's rejections) without
   any checkpoint recording it: direct and indirect [eval] must keep a
   representative's result inside its own parse key — and the mode-touch
   fixtures above *)
let sweep_sources =
  [
    "print(1 + 1);";
    steering_src;
    {|var o = { a: 1 }; print(Object.keys(o));
print("anA".split(/^A/)); print((-634619).toFixed(2));
print([10,9,1].sort()); print("abc".charAt(-1) === "");|};
    {|var foo = function(num) { var p = num.toFixed(-2); print(p); };
foo(-634619);|};
    "for (var i = 0; i < 3; i++)";
    "function f(a, a) { return a; } print(f(1, 2));";
    {|try { eval("for (var i = 0; i < 1; i++)"); print("accepted"); }
catch (e) { print(e.name); }|};
    {|try { eval("'use strict'; function f(a, a) { return a; } print(f(1, 2));"); }
catch (e) { print(e.name); }|};
    {|try { this["ev" + "al"]("for (var i = 0; i < 1; i++)"); print("accepted"); }
catch (e) { print(e.name); }|};
    {|try { eval("let x = 3; print(x * 2);"); } catch (e) { print(e.name); }|};
  ]
  @ List.map snd mode_touch_sources

(* Field-wise equality of every testbed's shared and direct result, with
   the testbeds visited in [order]: [Engine.all_testbeds] puts each
   configuration's normal testbed first, so only the reverse order has
   strict-mode representatives lend to normal-mode members. *)
let exec_cache_equals_direct_in order =
  List.iter
    (fun src ->
      let ec = Engine.Exec.cache src in
      List.iter
        (fun (tb : Engine.testbed) ->
          let direct = Engine.run ~fuel:100_000 tb src in
          let shared = Engine.Exec.run ~fuel:100_000 ec tb in
          let id =
            Printf.sprintf "%S @ %s"
              (String.sub src 0 (min 40 (String.length src)))
              (Engine.testbed_id tb)
          in
          Alcotest.(check bool) (id ^ " parsed") direct.Run.r_parsed
            shared.Run.r_parsed;
          Alcotest.(check (option string)) (id ^ " parse error")
            direct.Run.r_parse_error shared.Run.r_parse_error;
          Alcotest.(check string) (id ^ " status")
            (Run.status_to_string direct.Run.r_status)
            (Run.status_to_string shared.Run.r_status);
          Alcotest.(check string) (id ^ " output") direct.Run.r_output
            shared.Run.r_output;
          Alcotest.(check int) (id ^ " fuel") direct.Run.r_fuel_used
            shared.Run.r_fuel_used;
          Alcotest.(check bool) (id ^ " fired") true
            (Quirk.Set.equal direct.Run.r_fired shared.Run.r_fired);
          Alcotest.(check bool) (id ^ " touched") true
            (Quirk.Set.equal direct.Run.r_touched shared.Run.r_touched))
        order;
      (* the reference engine joins the same cache *)
      let ref_direct = Engine.run_reference ~fuel:100_000 src in
      let ref_shared = Engine.Exec.run_reference ~fuel:100_000 ec in
      Alcotest.(check string) "reference output" ref_direct.Run.r_output
        ref_shared.Run.r_output)
    sweep_sources

let exec_cache_equals_direct_sweep () =
  exec_cache_equals_direct_in Engine.all_testbeds;
  exec_cache_equals_direct_in (List.rev Engine.all_testbeds)

let mode_touch_fixtures_reach_their_point () =
  (* each fixture's two modes differ on the reference engine, and the
     execution records the mode-dependent point; plain code records none *)
  let signature strict src =
    let r = Run.run ~strict ~fuel:100_000 src in
    Run.status_to_string r.Run.r_status ^ "|" ^ r.Run.r_output
  in
  List.iter
    (fun (name, src) ->
      Alcotest.(check bool) (name ^ ": modes differ") true
        (signature false src <> signature true src);
      List.iter
        (fun strict ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: mode touched (strict=%b)" name strict)
            true
            (Run.run_exec ~strict ~fuel:100_000 src).Run.ex_mode_touched)
        [ false; true ])
    mode_touch_sources;
  Alcotest.(check bool) "plain code: mode untouched" false
    (Run.run_exec ~fuel:100_000 "print(1 + 1);").Run.ex_mode_touched;
  Alcotest.(check bool) "callee that ignores this: mode untouched" false
    (Run.run_exec ~strict:true ~fuel:100_000
       "function f(a) { return a; } print(f(1));")
      .Run.ex_mode_touched

let strict_this_still_fires () =
  (* fix 1 only skips callees that cannot observe [this]; one that can
     still consults the checkpoint, through the sharing cache too *)
  let src = "function f() { return this; } print(f() === undefined);" in
  let quirked =
    List.filter
      (fun (tb : Engine.testbed) ->
        tb.Engine.tb_mode = Engine.Strict
        && Quirk.Set.mem Quirk.Q_strict_this_is_global
             tb.Engine.tb_config.Engines.Registry.cfg_quirks)
      Engine.all_testbeds
  in
  Alcotest.(check bool) "some strict testbed has the quirk" true
    (quirked <> []);
  let ec = Engine.Exec.cache src in
  List.iter
    (fun tb ->
      let via_cache = Engine.Exec.run ~fuel:100_000 ec tb in
      List.iter
        (fun (tag, (r : Run.result)) ->
          let tag = Engine.testbed_id tb ^ " " ^ tag in
          Alcotest.(check string) (tag ^ ": output") "false\n" r.Run.r_output;
          Alcotest.(check bool) (tag ^ ": fired") true
            (Quirk.Set.mem Quirk.Q_strict_this_is_global r.Run.r_fired))
        [ ("direct", Engine.run ~fuel:100_000 tb src); ("shared", via_cache) ])
    quirked;
  Alcotest.(check string) "conforming strict engine" "true\n"
    (Run.run ~strict:true src).Run.r_output

let reverse_fill_first_store () =
  (* the relocation-cost checkpoint fires on a store below every earlier
     store, not on the first store into an empty array *)
  let q = quirks_of [ Quirk.Q_array_reverse_fill_quadratic ] in
  let first = "var a = []; a[a.length] = 1; a[5] = 2; print(a.length);" in
  let countdown =
    "var r = []; for (var j = 40; j >= 0; j--) r[j] = j; print(r.length);"
  in
  List.iter
    (fun resolve ->
      let run quirks src = Run.run ~quirks ~fuel:100_000 ~resolve src in
      let tag = Printf.sprintf "resolve=%b" resolve in
      let plain = run Quirk.Set.empty first and quirked = run q first in
      Alcotest.(check bool) (tag ^ ": first store does not fire") false
        (Quirk.Set.mem Quirk.Q_array_reverse_fill_quadratic
           quirked.Run.r_fired);
      Alcotest.(check bool) (tag ^ ": nor consult") false
        (Quirk.Set.mem Quirk.Q_array_reverse_fill_quadratic
           quirked.Run.r_touched);
      Alcotest.(check int) (tag ^ ": nor burn") plain.Run.r_fuel_used
        quirked.Run.r_fuel_used;
      let plain = run Quirk.Set.empty countdown and quirked = run q countdown in
      Alcotest.(check bool) (tag ^ ": countdown fires") true
        (Quirk.Set.mem Quirk.Q_array_reverse_fill_quadratic
           quirked.Run.r_fired);
      Alcotest.(check bool) (tag ^ ": and burns") true
        (quirked.Run.r_fuel_used > plain.Run.r_fuel_used))
    [ false; true ];
  (* the two cores burn the same on the countdown *)
  let fuel resolve =
    (Run.run ~quirks:q ~fuel:100_000 ~resolve countdown).Run.r_fuel_used
  in
  Alcotest.(check int) "countdown fuel, tree = compiled" (fuel false)
    (fuel true)

let exec_cache_collapses_the_sweep () =
  (* the acceptance bar: across a full 102-testbed sweep, at least 4x
     fewer interpreter executions than testbeds that ran *)
  List.iter
    (fun src ->
      let ec = Engine.Exec.cache src in
      let ran =
        List.length
          (List.filter
             (fun (tb : Engine.testbed) ->
               ignore (Engine.Exec.run ~fuel:100_000 ec tb);
               true)
             Engine.all_testbeds)
      in
      let executed, shared = Engine.Exec.stats ec in
      Alcotest.(check int) (src ^ ": every run accounted") ran
        (executed + shared);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d executions for %d testbeds (>=4x)" src
           executed ran)
        true
        (executed * 4 <= ran))
    [ "print(1 + 1);"; steering_src;
      {|print([3,1,2].sort()); print("x".charAt(-1));|} ]

let sweep_collapses_across_parse_groups () =
  (* a program that neither parses at run time, nor consults a checkpoint,
     nor reaches a mode-dependent point runs once for the whole sweep:
     every parse group, ES5 included, shares the standard base front end
     and hence its execution classes, in both modes *)
  let ec = Engine.Exec.cache "print(1 + 1);" in
  List.iter
    (fun tb -> ignore (Engine.Exec.run ~fuel:100_000 ec tb))
    Engine.all_testbeds;
  let executed, shared = Engine.Exec.stats ec in
  Alcotest.(check int) "one execution for both modes" 1 executed;
  Alcotest.(check int) "every other testbed shares"
    (List.length Engine.all_testbeds - 1)
    shared

let es5_parse_prints_as_standard () =
  (* the ES5 fold's premise: ES5 options only add rejections, so a
     program they accept parses to the standard tree. Trees carry fresh
     node ids per parse, so compare printed text *)
  let print opts ~force_strict src =
    match Jsparse.Parser.parse_program ~opts ~force_strict src with
    | p -> Some (Jsast.Printer.program_to_string p)
    | exception Jsparse.Parser.Syntax_error _ -> None
  in
  let accepted = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun force_strict ->
          match print Jsparse.Parser.es5_options ~force_strict src with
          | None -> ()
          | Some es5 ->
              incr accepted;
              Alcotest.(check (option string))
                (Printf.sprintf "strict=%b: %s" force_strict src)
                (Some es5)
                (print Jsparse.Parser.default_options ~force_strict src))
        [ false; true ])
    Lm.Js_corpus.programs;
  Alcotest.(check bool) "the ES5 profile accepts corpus programs" true
    (!accepted > 0)

let run_case_share_equals_direct () =
  List.iter
    (fun src ->
      let tc = Comfort.Testcase.make src in
      let shared =
        Comfort.Difftest.run_case ~share:true Engine.all_testbeds tc
      in
      let direct =
        Comfort.Difftest.run_case ~share:false Engine.all_testbeds tc
      in
      Alcotest.(check bool) (src ^ ": reports equal") true
        (Comfort.Difftest.report_equal shared direct))
    sweep_sources

let audit_accepts_equal_paths () =
  List.iter
    (fun src ->
      let tc = Comfort.Testcase.make src in
      ignore (Comfort.Difftest.audit_case Engine.all_testbeds tc))
    sweep_sources

let disc_key (d : Comfort.Campaign.discovery) =
  ( Engines.Registry.engine_name d.Comfort.Campaign.disc_engine,
    Quirk.to_string d.Comfort.Campaign.disc_quirk,
    d.Comfort.Campaign.disc_at,
    d.Comfort.Campaign.disc_behavior,
    d.Comfort.Campaign.disc_mode )

let campaign_share_invariant () =
  (* sharing on/off x jobs 1/4: same discoveries, timeline and filter
     counts everywhere — the bench's acceptance check in miniature *)
  let campaign ~share ~jobs =
    Comfort.Campaign.run ~budget:100 ~share ~jobs
      (Comfort.Campaign.comfort_fuzzer ~seed:23 ())
  in
  let base = campaign ~share:false ~jobs:1 in
  List.iter
    (fun (share, jobs) ->
      let r = campaign ~share ~jobs in
      let tag = Printf.sprintf "share=%b jobs=%d" share jobs in
      Alcotest.(check bool) (tag ^ ": same discoveries") true
        (List.map disc_key r.Comfort.Campaign.cp_discoveries
        = List.map disc_key base.Comfort.Campaign.cp_discoveries);
      Alcotest.(check bool) (tag ^ ": same timeline") true
        (r.Comfort.Campaign.cp_timeline = base.Comfort.Campaign.cp_timeline);
      Alcotest.(check int) (tag ^ ": same filtered repeats")
        base.Comfort.Campaign.cp_filtered_repeats
        r.Comfort.Campaign.cp_filtered_repeats;
      Alcotest.(check int) (tag ^ ": same unattributed")
        base.Comfort.Campaign.cp_unattributed
        r.Comfort.Campaign.cp_unattributed)
    [ (false, 4); (true, 1); (true, 4) ]

let campaign_audit_mode_passes () =
  (* every 3rd case double-runs and cross-checks; any mismatch raises *)
  let r =
    Comfort.Campaign.run ~budget:60 ~share:true ~audit_share:3 ~jobs:2
      (Comfort.Campaign.comfort_fuzzer ~seed:29 ())
  in
  Alcotest.(check int) "campaign completed" 60 r.Comfort.Campaign.cp_cases_run

let reducer_share_equals_direct () =
  (* the reduction predicate must accept/reject the same candidates *)
  let src =
    {|var junk1 = 1;
var p = (-634619).toFixed(-2);
print(p);
var junk2 = 2;|}
  in
  let cfg =
    Option.get
      (Engines.Registry.find_config ~engine:Engines.Registry.Rhino
         ~version:"1.7.12")
  in
  let tb = { Engine.tb_config = cfg; tb_mode = Engine.Normal } in
  let target = Engine.run tb src in
  let reference = Engine.run_reference src in
  let tsig = Comfort.Difftest.signature_of_result target in
  let rsig = Comfort.Difftest.signature_of_result reference in
  Alcotest.(check bool) "fixture deviates" true (tsig <> rsig);
  let dev =
    {
      Comfort.Difftest.d_testbed = tb;
      d_kind = Comfort.Difftest.kind_of tsig rsig;
      d_expected = Comfort.Difftest.signature_to_string rsig;
      d_actual = Comfort.Difftest.signature_to_string tsig;
      d_behavior = Comfort.Difftest.behavior_label tsig rsig;
      d_fired = target.Run.r_fired;
    }
  in
  let reduce share =
    Comfort.Reducer.reduce
      ~still_triggers:(Comfort.Reducer.still_triggers_deviation ~share tb dev)
      src
  in
  Alcotest.(check string) "same reduction" (reduce false) (reduce true)

let suite =
  [
    case "fixpoint splits when a firing exposes a checkpoint"
      fixpoint_splits_on_exposed_checkpoint;
    case "shared result equals a direct run" shared_result_equals_direct_result;
    case "run_count counts real executions" run_count_counts_real_executions;
    case "Exec cache equals direct runs on all 102 testbeds"
      exec_cache_equals_direct_sweep;
    case "mode-touch fixtures reach their point"
      mode_touch_fixtures_reach_their_point;
    case "strict this still fires where observable" strict_this_still_fires;
    case "reverse fill: the first store is no relocation"
      reverse_fill_first_store;
    case "Exec cache collapses the sweep >=4x" exec_cache_collapses_the_sweep;
    case "print(1 + 1) runs once per sweep, across modes and parse groups"
      sweep_collapses_across_parse_groups;
    case "ES5 parses print as the standard parse" es5_parse_prints_as_standard;
    case "run_case: share on/off reports equal" run_case_share_equals_direct;
    case "audit accepts equal paths" audit_accepts_equal_paths;
    case "campaigns are share- and jobs-invariant" campaign_share_invariant;
    case "campaign audit mode passes" campaign_audit_mode_passes;
    case "reducer predicate is share-invariant" reducer_share_equals_direct;
  ]
