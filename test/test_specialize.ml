(* The quirk-specialised fast path (PR 7): copy-on-write realms,
   per-cell compiled closures with baked-in checkpoint answers, and
   monomorphic inline caches at compiled property sites.

   The contract under test is the same as for sharing, resolving and
   reach: specialisation is *invisible in results*. Every run, sweep and
   campaign must produce field-for-field what the generic path produces;
   the only legitimate difference is speed. On top of that, the
   copy-on-write realm must leak nothing across executions — after any
   mutation-heavy sweep the domain's shared template has to audit
   pristine. *)

open Helpers
module Engine = Engines.Engine
module Run = Jsinterp.Run
module Realm = Jsinterp.Realm

(* Sources chosen to stress exactly the machinery specialisation adds:
   inline caches (hot property loops, prototype method loads, layout
   churn), the realm write barrier (template-object mutation: builtin
   prototypes, global builtins), and per-cell compilation on quirk-rich
   traffic. *)
let corpus =
  [
    (* hot own-property loads and stores: inline-cache traffic *)
    "var o = {a: 1, b: 2};\n\
     for (var i = 0; i < 50; i++) o.a = o.a + o.b;\n\
     print(o.a);";
    (* prototype method load through a user constructor *)
    "function C() {}\n\
     C.prototype.m = function () { return 40 + 2; };\n\
     var c = new C();\n\
     for (var i = 0; i < 20; i++) c.m();\n\
     print(c.m());";
    (* layout churn: delete and re-add must invalidate cached entries *)
    "var o = { p: 1 };\n\
     delete o.p;\n\
     o.p = 2;\n\
     for (var i = 0; i < 10; i++) o.p = o.p + 1;\n\
     print(o.p);";
    (* template mutation: builtin prototype gains a property (the realm
       write barrier must journal Object.prototype and roll it back) *)
    "Object.prototype.z = 7;\nvar o = {};\nprint(o.z);";
    (* template mutation: a global builtin object is extended *)
    "Math.extra = 1;\nprint(Math.extra + Math.floor(1.5));";
    (* frozen objects: silent rejection vs strict throw across modes *)
    "var f = {};\n\
     Object.defineProperty(f, 'k', { value: 1, writable: false });\n\
     try { f.k = 2; } catch (e) { print('threw'); }\n\
     print(f.k);";
    (* array element aliasing and length truncation *)
    "var a = [1, 2, 3];\na[0] = a[2];\na.length = 2;\nprint(a.join(','));";
    (* quirk-rich traffic: sort stability, charAt bounds, toFixed *)
    "print([10, 9, 1].sort());\n\
     print(\"abc\".charAt(-1));\n\
     print((0.1).toFixed(1));";
  ]
  (* integer-keyed array access and array-receiver inline caches: index
     boundaries, quirked stores, frozen arrays, IC invalidation *)
  @ List.map (fun (_, src, _) -> src) Test_resolve.array_fixtures

let check_result_equal id (a : Run.result) (b : Run.result) =
  Alcotest.(check bool) (id ^ ": parsed") a.Run.r_parsed b.Run.r_parsed;
  Alcotest.(check (option string))
    (id ^ ": parse error") a.Run.r_parse_error b.Run.r_parse_error;
  Alcotest.(check string) (id ^ ": status")
    (Run.status_to_string a.Run.r_status)
    (Run.status_to_string b.Run.r_status);
  Alcotest.(check string) (id ^ ": output") a.Run.r_output b.Run.r_output;
  Alcotest.(check int) (id ^ ": fuel") a.Run.r_fuel_used b.Run.r_fuel_used;
  Alcotest.(check bool) (id ^ ": fired") true
    (Jsinterp.Quirk.Set.equal a.Run.r_fired b.Run.r_fired);
  Alcotest.(check bool) (id ^ ": touched") true
    (Jsinterp.Quirk.Set.equal a.Run.r_touched b.Run.r_touched)

(* --- specialised runs equal generic runs, field for field --- *)

let specialized_equals_generic () =
  List.iter
    (fun src ->
      List.iter
        (fun (tb : Engine.testbed) ->
          let id = Engine.testbed_id tb ^ " on " ^ String.sub src 0 12 in
          let generic =
            Engine.run ~fuel:100_000 ~resolve:true ~specialize:false tb src
          in
          let fast =
            Engine.run ~fuel:100_000 ~resolve:true ~specialize:true tb src
          in
          check_result_equal id generic fast)
        Engine.all_testbeds)
    corpus

(* --- copy-on-write isolation: sweeps leave the template pristine --- *)

let cow_sweep_leaves_realm_pristine () =
  (* run every mutation-heavy source across the full testbed pool on the
     shared fast path, then audit the domain template structurally
     against a freshly built realm: any surviving write is a barrier
     gap, i.e. state leaking from one execution into the next *)
  List.iter
    (fun src ->
      let ec = Engine.Exec.cache src in
      List.iter
        (fun tb ->
          ignore (Engine.Exec.run ~fuel:100_000 ~specialize:true ec tb))
        Engine.all_testbeds;
      match Realm.check_pristine () with
      | Ok () -> ()
      | Error what ->
          Alcotest.failf "template not pristine after %S: %s" src what)
    corpus

let cow_sweep_matches_generic_sweep () =
  (* the same sweep with specialisation on and off, through separate
     caches, must agree result for result *)
  List.iter
    (fun src ->
      let ec_fast = Engine.Exec.cache src in
      let ec_slow = Engine.Exec.cache src in
      List.iter
        (fun tb ->
          let fast = Engine.Exec.run ~fuel:100_000 ~specialize:true ec_fast tb in
          let slow =
            Engine.Exec.run ~fuel:100_000 ~specialize:false ec_slow tb
          in
          check_result_equal (Engine.testbed_id tb) slow fast)
        Engine.all_testbeds)
    corpus

(* --- the machinery actually engages --- *)

let counters_engage () =
  (* deltas of the process-wide counters across targeted runs; the
     fuzzer's own corpus is array- and primitive-heavy, so these
     hand-written programs are the canary that the fast paths exist *)
  let spec0 = Jsinterp.Compile.specialized_count () in
  let ic0 = Jsinterp.Value.ic_count () in
  let cow0 = Jsinterp.Value.cow_count () in
  ignore
    (Run.run ~resolve:true ~specialize:true
       "var o = {a: 1, b: 2};\n\
        for (var i = 0; i < 50; i++) o.a = o.a + o.b;\n\
        print(o.a);");
  ignore
    (Run.run ~resolve:true ~specialize:true
       "Object.prototype.z = 7;\nvar o = {};\nprint(o.z);");
  Alcotest.(check bool) "per-cell compilations happened" true
    (Jsinterp.Compile.specialized_count () > spec0);
  Alcotest.(check bool) "inline caches hit on hot property traffic" true
    (Jsinterp.Value.ic_count () > ic0);
  Alcotest.(check bool) "write barrier journaled a template mutation" true
    (Jsinterp.Value.cow_count () > cow0);
  Alcotest.(check bool) "rollback restored the template" true
    (Realm.check_pristine () = Ok ())

let array_receiver_ics_hit () =
  (* the campaign's own idiom: a method load on an array receiver. Array
     storage cannot answer ["push"], so the site caches arrays too *)
  let ic0 = Jsinterp.Value.ic_count () in
  let r =
    Run.run ~resolve:true ~specialize:true
      "var out = [];\n\
       for (var i = 0; i < 20; i++) out.push(i);\n\
       print(out.length + \":\" + out[19]);"
  in
  Alcotest.(check string) "loop output" "20:19\n" r.Run.r_output;
  Alcotest.(check bool) "inline caches hit on array receivers" true
    (Jsinterp.Value.ic_count () > ic0)

(* --- the per-case audit passes on real traffic --- *)

let audit_specialize_passes () =
  List.iter
    (fun src ->
      let tc = Comfort.Testcase.make src in
      (* raises Specialize_mismatch on any divergence *)
      ignore
        (Comfort.Difftest.audit_specialize_case ~share:true ~resolve:true
           Engine.all_testbeds tc))
    corpus

(* --- campaign invariance --- *)

let disc_key (d : Comfort.Campaign.discovery) =
  ( Engines.Registry.engine_name d.Comfort.Campaign.disc_engine,
    Jsinterp.Quirk.to_string d.Comfort.Campaign.disc_quirk,
    d.Comfort.Campaign.disc_at,
    d.Comfort.Campaign.disc_behavior,
    Engine.mode_to_string d.Comfort.Campaign.disc_mode )

let campaign_specialize_invariant () =
  (* specialisation on/off x jobs: identical discoveries, timeline and
     filter counts — the acceptance bar in miniature *)
  let campaign ~specialize ~jobs =
    Comfort.Campaign.run ~budget:80 ~share:true ~resolve:true ~specialize
      ~jobs
      (Comfort.Campaign.comfort_fuzzer ~seed:29 ())
  in
  let base = campaign ~specialize:false ~jobs:1 in
  List.iter
    (fun (specialize, jobs) ->
      let r = campaign ~specialize ~jobs in
      let tag = Printf.sprintf "specialize=%b jobs=%d" specialize jobs in
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
    [ (true, 1); (true, 4); (false, 4) ]

let campaign_audit_specialize_passes () =
  (* every 2nd case cross-checks the specialised report against the
     generic one in a live campaign; a mismatch raises *)
  let r =
    Comfort.Campaign.run ~budget:40 ~share:true ~resolve:true
      ~specialize:true ~audit_specialize:2 ~jobs:1
      (Comfort.Campaign.comfort_fuzzer ~seed:31 ())
  in
  Alcotest.(check int) "campaign completed its budget" 40
    r.Comfort.Campaign.cp_cases_run

let suite =
  [
    case "specialised runs equal generic runs" specialized_equals_generic;
    case "COW sweeps leave the realm pristine" cow_sweep_leaves_realm_pristine;
    case "COW sweeps match generic sweeps" cow_sweep_matches_generic_sweep;
    case "specialisation counters engage" counters_engage;
    case "inline caches hit on array receivers" array_receiver_ics_hit;
    case "per-case specialise audit passes" audit_specialize_passes;
    case "campaigns are specialisation-invariant"
      campaign_specialize_invariant;
    case "auditing campaign passes" campaign_audit_specialize_passes;
  ]
