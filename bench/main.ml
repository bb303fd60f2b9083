(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (§5), printing paper-reported values next to measured ones.

   Budgets are scaled from the paper's 200-hour / 250k-test-case campaigns
   down to minutes of laptop time; set COMFORT_BENCH_SCALE to an integer
   multiplier to run longer campaigns (default 1).

   Set COMFORT_JOBS=N to run every campaign in here on N worker domains;
   results are identical at any job count. `campaign` measures throughput
   in all four (execution sharing on/off) x (1 job / N jobs) combinations
   — counting real interpreter executions per case either way — and
   writes BENCH_campaign.json.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table2     # one experiment
     dune exec bench/main.exe campaign   # executor throughput + JSON
     dune exec bench/main.exe interp     # interpreter core ns/op + JSON
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks

   See EXPERIMENTS.md for the recorded paper-vs-measured comparison. *)

module Table = Cutil.Table

let scale =
  match Sys.getenv_opt "COMFORT_BENCH_SCALE" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

let campaign_budget = 6000 * scale
let fig8_budget = 3000 * scale
let fig9_samples = 600 * scale

let header title =
  Printf.printf "\n================ %s ================\n%!" title

(* Campaign results are reused across tables; memoised. *)
let comfort_result : Comfort.Campaign.result Lazy.t =
  lazy
    (let fz = Comfort.Campaign.comfort_fuzzer ~seed:11 () in
     (* the paper's main campaign runs against all 102 testbeds (51
        engine-version configurations x 2 modes) *)
     Comfort.Campaign.run ~testbeds:Engines.Engine.all_testbeds
       ~budget:campaign_budget fz)

(* ---------- Table 1 ---------- *)

let table1 () =
  header "Table 1: JS engines under test";
  let t =
    Table.create [ "JS Engine"; "Version"; "Build"; "Release"; "Supported ES" ]
  in
  List.iter
    (fun (c : Engines.Registry.config) ->
      Table.add_row t
        [
          Engines.Registry.engine_name c.Engines.Registry.cfg_engine;
          c.Engines.Registry.cfg_version;
          c.Engines.Registry.cfg_build;
          c.Engines.Registry.cfg_release;
          Engines.Registry.es_to_string c.Engines.Registry.cfg_es;
        ])
    Engines.Registry.all_configs;
  Table.print t;
  Printf.printf "configurations: %d (paper: 51); testbeds: %d (paper: 102)\n"
    (List.length Engines.Registry.all_configs)
    (List.length Engines.Engine.all_testbeds)

(* ---------- Table 2 ---------- *)

let paper_table2 =
  [
    ("V8", (4, 4, 3, 1)); ("ChakraCore", (7, 7, 5, 1)); ("JSC", (12, 11, 11, 3));
    ("SpiderMonkey", (3, 3, 3, 0)); ("Rhino", (44, 29, 29, 4));
    ("Nashorn", (18, 12, 2, 1)); ("Hermes", (16, 16, 15, 4));
    ("JerryScript", (35, 31, 31, 3)); ("QuickJS", (17, 14, 14, 4));
    ("Graaljs", (2, 2, 2, 0));
  ]

let table2 () =
  header "Table 2: bug statistics per engine";
  let res = Lazy.force comfort_result in
  let rows = Comfort.Report.table2 res in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "JS Engine"; "#Found"; "#Verified"; "#Fixed"; "#Test262"; "paper (F/V/Fx/T262)" ]
  in
  let totals = ref (0, 0, 0, 0) in
  List.iter
    (fun (name, s, v, f, a) ->
      let ps, pv, pf, pa =
        Option.value (List.assoc_opt name paper_table2) ~default:(0, 0, 0, 0)
      in
      let a', b', c', d' = !totals in
      totals := (a' + s, b' + v, c' + f, d' + a);
      Table.add_row t
        [
          name; string_of_int s; string_of_int v; string_of_int f; string_of_int a;
          Printf.sprintf "%d/%d/%d/%d" ps pv pf pa;
        ])
    rows;
  let a, b, c, d = !totals in
  Table.add_row t
    [ "Total"; string_of_int a; string_of_int b; string_of_int c; string_of_int d;
      "158/129/115/21" ];
  Table.print t;
  Printf.printf
    "campaign: %d test cases; %d ground-truth bugs seeded across the registry\n"
    res.Comfort.Campaign.cp_cases_run
    (Comfort.Report.ground_truth_total ())

(* ---------- Table 3 ---------- *)

let table3 () =
  header "Table 3: bugs per engine version (earliest-version attribution)";
  let res = Lazy.force comfort_result in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "JS Engine"; "Version"; "#Found"; "#Verified"; "#Fixed"; "#New" ]
  in
  List.iter
    (fun (e, v, s, ver, fix, nw) ->
      Table.add_row t
        [ e; v; string_of_int s; string_of_int ver; string_of_int fix; string_of_int nw ])
    (Comfort.Report.table3 res);
  Table.print t;
  print_endline
    "(paper Table 3: 33 versions with bugs; totals 158 found / 129 verified / 115 fixed / 109 new)"

(* ---------- Table 4 ---------- *)

let table4 () =
  header "Table 4: bugs per discovery mechanism";
  let res = Lazy.force comfort_result in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "Category"; "#Found"; "#Confirmed"; "#Fixed"; "#Test262"; "paper" ]
  in
  List.iter
    (fun (cat, s, v, f, a) ->
      let paper =
        if cat = "Test program generation" then "97/78/67/5" else "61/51/48/16"
      in
      Table.add_row t
        [ cat; string_of_int s; string_of_int v; string_of_int f; string_of_int a; paper ])
    (Comfort.Report.table4 res);
  Table.print t

(* ---------- Table 5 ---------- *)

let paper_table5 =
  [
    ("Object", "23/21/18"); ("String", "22/20/19"); ("Array", "17/12/9");
    ("TypedArray", "8/5/5"); ("Number", "5/4/4"); ("eval function", "4/4/4");
    ("DataView", "4/2/2"); ("JSON", "3/3/2"); ("RegExp", "2/2/1");
    ("Date", "2/1/1");
  ]

let table5 () =
  header "Table 5: top buggy object types";
  let res = Lazy.force comfort_result in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "API Type"; "#Found"; "#Confirmed"; "#Fixed"; "paper (S/C/F)" ]
  in
  List.iter
    (fun (ot, s, v, f) ->
      Table.add_row t
        [
          ot; string_of_int s; string_of_int v; string_of_int f;
          Option.value (List.assoc_opt ot paper_table5) ~default:"-";
        ])
    (Comfort.Report.table5 res);
  Table.print t

(* ---------- Figure 7 ---------- *)

let fig7 () =
  header "Figure 7: bugs per compiler component";
  let res = Lazy.force comfort_result in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
      [ "Component"; "#Found"; "#Fixed"; "paper trend" ]
  in
  let trend = function
    | "CodeGen" -> "largest group"
    | "Implementation" -> "45 confirmed / 41 fixed"
    | "Strict mode" -> "reported separately"
    | _ -> "smaller group"
  in
  List.iter
    (fun (comp, s, f) ->
      Table.add_row t [ comp; string_of_int s; string_of_int f; trend comp ])
    (Comfort.Report.fig7 res);
  Table.print t

(* ---------- Figure 8 ---------- *)

let fig8 () =
  header "Figure 8: unique bugs over equal testing budget, per fuzzer";
  let fuzzers =
    Comfort.Campaign.comfort_fuzzer ~seed:11 () :: Baselines.Fuzzers.all ()
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "Fuzzer"; "25%"; "50%"; "75%"; "100% of budget" ]
  in
  let all_results =
    List.map
      (fun fz ->
        let res = Comfort.Campaign.run ~budget:fig8_budget fz in
        let at frac =
          let target = fig8_budget * frac / 100 in
          List.fold_left
            (fun acc (n, c) -> if n <= target then c else acc)
            0 res.Comfort.Campaign.cp_timeline
        in
        Table.add_row t
          [
            res.Comfort.Campaign.cp_fuzzer;
            string_of_int (at 25); string_of_int (at 50); string_of_int (at 75);
            string_of_int (at 100);
          ];
        res)
      fuzzers
  in
  Table.print t;
  (* exclusivity: bugs Comfort alone found, and bugs baselines found that
     Comfort missed (§5.3.1-2) *)
  let key d = (d.Comfort.Campaign.disc_engine, d.Comfort.Campaign.disc_quirk) in
  (match all_results with
  | comfort :: baselines ->
      let comfort_keys = List.map key comfort.Comfort.Campaign.cp_discoveries in
      let baseline_keys =
        List.concat_map
          (fun r -> List.map key r.Comfort.Campaign.cp_discoveries)
          baselines
      in
      let only_comfort =
        List.filter (fun k -> not (List.mem k baseline_keys)) comfort_keys
      in
      let only_baselines =
        List.sort_uniq compare
          (List.filter (fun k -> not (List.mem k comfort_keys)) baseline_keys)
      in
      Printf.printf
        "bugs only Comfort found: %d (paper: 31); bugs only baselines found: %d (paper: 29)\n"
        (List.length only_comfort)
        (List.length only_baselines);
      List.iter
        (fun (e, q) ->
          Printf.printf "  baseline-only: %s %s\n"
            (Engines.Registry.engine_name e)
            (Jsinterp.Quirk.to_string q))
        only_baselines
  | [] -> ());
  print_endline
    "(paper: Comfort found 60 unique bugs in 200h, more than any baseline; DeepSmith found 6)"

(* ---------- Figure 9 ---------- *)

let fig9 () =
  header "Figure 9: test-case quality per fuzzer";
  let fuzzers =
    Comfort.Campaign.comfort_fuzzer ~seed:31 () :: Baselines.Fuzzers.all ~seed:30 ()
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "Fuzzer"; "passing"; "stmt cov"; "branch cov"; "func cov"; "paper passing" ]
  in
  List.iter
    (fun fz ->
      let q = Comfort.Metrics.measure fz ~n:fig9_samples in
      let paper =
        match q.Comfort.Metrics.q_fuzzer with "Comfort" -> "80%" | _ -> "<60%"
      in
      Table.add_row t
        [
          q.Comfort.Metrics.q_fuzzer;
          Printf.sprintf "%.0f%%" (100.0 *. q.Comfort.Metrics.q_validity);
          Printf.sprintf "%.0f%%" (100.0 *. q.Comfort.Metrics.q_stmt_cov);
          Printf.sprintf "%.0f%%" (100.0 *. q.Comfort.Metrics.q_branch_cov);
          Printf.sprintf "%.0f%%" (100.0 *. q.Comfort.Metrics.q_func_cov);
          paper;
        ])
    fuzzers;
  Table.print t;
  let exn_rate =
    Comfort.Metrics.runtime_exception_rate
      (Comfort.Campaign.comfort_fuzzer ~seed:33 ())
      ~n:(fig9_samples / 2)
  in
  Printf.printf
    "runtime-exception rate of valid Comfort cases: %.0f%% (paper: ~18%%)\n"
    (100.0 *. exn_rate)

(* ---------- §5.2 listings ---------- *)

let listings () =
  header "Section 5.2 bug-example listings (reproduced end to end)";
  let check name ~engine ~version ~src ~expect_deviation =
    let cfg = Option.get (Engines.Registry.find_config ~engine ~version) in
    let tb = { Engines.Engine.tb_config = cfg; tb_mode = Engines.Engine.Normal } in
    let target = Engines.Engine.run ~fuel:2_000_000 tb src in
    let reference = Engines.Engine.run_reference ~fuel:2_000_000 src in
    let tsig = Comfort.Difftest.signature_of_result target in
    let rsig = Comfort.Difftest.signature_of_result reference in
    let deviates = tsig <> rsig in
    Printf.printf "%-46s %-20s %s\n" name
      (Engines.Registry.engine_name engine ^ " " ^ version)
      (if deviates = expect_deviation then
         Printf.sprintf "OK (%s | expected %s)"
           (Comfort.Difftest.signature_to_string tsig)
           (Comfort.Difftest.signature_to_string rsig)
       else "MISMATCH")
  in
  check "Fig. 2: substr(start, undefined)" ~engine:Engines.Registry.Rhino
    ~version:"1.7.12" ~expect_deviation:true
    ~src:
      {|function foo(str, start, len) { var ret = str.substr(start, len); return ret; }
var s = "Name: Albert";
var pre = "Name: ";
var len = undefined;
var name = foo(s, pre.length, len);
print(name);|};
  check "Listing 1: defineProperty on array length" ~engine:Engines.Registry.V8
    ~version:"8.5-d891c59" ~expect_deviation:true
    ~src:
      {|var foo = function() {
  var arrobj = [0, 1];
  Object.defineProperty(arrobj, "length", { value: 1, configurable: true });
};
try { foo(); print("no error"); } catch (e) { print(e.name); }|};
  check "Listing 2: reverse array fill (scaled 1/10)"
    ~engine:Engines.Registry.Hermes ~version:"0.1.1" ~expect_deviation:true
    ~src:
      {|var foo = function(size) {
  var array = new Array(size);
  while (size--) { array[size] = 0; }
};
var parameter = 90486;
foo(parameter);
print("done");|};
  check "Listing 3: new Uint32Array(3.14)" ~engine:Engines.Registry.SpiderMonkey
    ~version:"52.9" ~expect_deviation:true
    ~src:
      {|var foo = function(length) { var array = new Uint32Array(length); print(array.length); };
var parameter = 3.14;
foo(parameter);|};
  check "Listing 4: toFixed(-2)" ~engine:Engines.Registry.Rhino ~version:"1.7.12"
    ~expect_deviation:true
    ~src:
      {|var foo = function(num) { var p = num.toFixed(-2); print(p); };
var parameter = -634619;
foo(parameter);|};
  check "Listing 5: typed array set from string" ~engine:Engines.Registry.JSC
    ~version:"246135" ~expect_deviation:true
    ~src:
      {|var foo = function() { var e = '123'; A = new Uint8Array(5); A.set(e); print(A); };
foo();|};
  check "Listing 6: obj[true] = 10 appends" ~engine:Engines.Registry.QuickJS
    ~version:"2020-04-12" ~expect_deviation:true
    ~src:
      {|var foo = function() {
  var property = true;
  var obj = [1,2,5];
  obj[property] = 10;
  print(obj);
  print(obj[property]);
};
foo();|};
  check "Listing 7: eval for-loop without body"
    ~engine:Engines.Registry.ChakraCore ~version:"1.11.19" ~expect_deviation:true
    ~src:
      {|try { eval("for(var i = 0; i < 5; i++)"); print("compiled"); } catch (e) { print(e.name); }|};
  check "Listing 8: \"anA\".split(/^A/)" ~engine:Engines.Registry.JerryScript
    ~version:"2.3.0" ~expect_deviation:true
    ~src:
      {|var foo = function() { var a = "anA".split(/^A/); print(a); };
foo();|};
  check "Listing 9: normalize on empty string crash"
    ~engine:Engines.Registry.QuickJS ~version:"2020-04-12" ~expect_deviation:true
    ~src:
      {|var foo = function(str){ str.normalize(true); };
var parameter = "";
foo(parameter);|};
  check "Listing 10: String.prototype.big.call(null)"
    ~engine:Engines.Registry.Rhino ~version:"1.7.12" ~expect_deviation:true
    ~src:{|var v1 = String.prototype.big.call(null);
print(v1);|};
  check "Listing 11: Object.seal(new String(n))" ~engine:Engines.Registry.Rhino
    ~version:"1.7.12" ~expect_deviation:true
    ~src:
      {|function main() { var v2 = new String(2477); var v4 = Object.seal(v2); }
main();
print("ok");|};
  check "Listing 12: non-writable lastIndex + compile"
    ~engine:Engines.Registry.Rhino ~version:"1.7.12" ~expect_deviation:true
    ~src:
      {|var regexp5 = /a/g;
Object.defineProperty(regexp5, "lastIndex", { writable: false });
try { regexp5.compile("b"); print("no error"); } catch (e) { print(e.name); }|};
  check "Listing 13: named funcexpr binding" ~engine:Engines.Registry.Hermes
    ~version:"0.6.0" ~expect_deviation:true
    ~src:
      {|(function v1() {
  v1 = 20;
  print(v1 !== 20);
  print(typeof v1);
}());|}

(* ---------- spec extraction ---------- *)

let spec () =
  header "Section 3.1: specification rule extraction";
  let db = Lazy.force Specdb.Db.standard in
  print_endline (Specdb.Db.stats db);
  print_endline "(paper: ~82% of API and object specification rules extracted)";
  match Specdb.Db.lookup db "substr" with
  | e :: _ ->
      print_endline "Figure 4(b) JSON for String.prototype.substr:";
      print_endline (Specdb.Spec_ast.to_json e)
  | [] -> print_endline "substr entry missing!"

(* ---------- ablations ---------- *)

let ablate () =
  header "Ablations (DESIGN.md, section 4)";
  (* 1. top-k sweep *)
  Printf.printf "[1] top-k sampling vs syntactic validity and diversity (n=200):\n";
  List.iter
    (fun k ->
      let g = Comfort.Generator.create ~seed:41 ~top_k:k () in
      let samples = List.init 200 (fun _ -> Comfort.Generator.sample_program g) in
      let valid =
        List.length (List.filter Jsparse.Parser.is_valid samples)
      in
      let distinct = List.length (List.sort_uniq compare samples) in
      Printf.printf "  k=%-3d validity=%3.0f%%  distinct=%3.0f%%\n" k
        (100.0 *. Float.of_int valid /. 200.0)
        (100.0 *. Float.of_int distinct /. 200.0))
    [ 1; 5; 10; 50 ];
  (* 2. keeping invalid programs *)
  Printf.printf "[2] keep-invalid ratio vs parser-component bugs (budget=%d):\n"
    (fig8_budget / 2);
  List.iter
    (fun keep ->
      let fz =
        let gen = Comfort.Generator.create ~seed:43 ~keep_invalid:keep () in
        let dg = Comfort.Datagen.create ~seed:44 () in
        let queue = Queue.create () in
        {
          Comfort.Campaign.fz_name =
            Printf.sprintf "Comfort-keep%.0f%%" (100.0 *. keep);
          fz_raw = None;
          fz_batch =
            (fun n ->
              while Queue.length queue < n do
                match Comfort.Generator.generate gen ~n:1 with
                | [] -> ()
                | tc :: _ ->
                    Queue.add tc queue;
                    List.iter
                      (fun m -> Queue.add m queue)
                      (Comfort.Datagen.mutate dg tc)
              done;
              List.init n (fun _ -> Queue.pop queue));
        }
      in
      let res = Comfort.Campaign.run ~budget:(fig8_budget / 2) fz in
      let parser_bugs =
        List.length
          (List.filter
             (fun d ->
               (Engines.Catalogue.find d.Comfort.Campaign.disc_quirk)
                 .Engines.Catalogue.component = Engines.Catalogue.Parser)
             res.Comfort.Campaign.cp_discoveries)
      in
      Printf.printf "  keep=%.0f%%: %d unique bugs, %d in the parser component\n"
        (100.0 *. keep)
        (List.length res.Comfort.Campaign.cp_discoveries)
        parser_bugs)
    [ 0.0; 0.2 ];
  (* 3. ECMA-262 guidance on/off *)
  Printf.printf "[3] spec-guided data generation on/off (budget=%d):\n"
    (fig8_budget / 2);
  List.iter
    (fun with_datagen ->
      let fz = Comfort.Campaign.comfort_fuzzer ~seed:45 ~with_datagen () in
      let res = Comfort.Campaign.run ~budget:(fig8_budget / 2) fz in
      Printf.printf "  datagen=%b: %d unique bugs\n" with_datagen
        (List.length res.Comfort.Campaign.cp_discoveries))
    [ true; false ];
  (* 4. LM context length *)
  Printf.printf "[4] LM context order vs validity (n=200):\n";
  List.iter
    (fun order ->
      let model = Lm.Model.train_bpe ~order Lm.Js_corpus.programs in
      let g = Comfort.Generator.create ~seed:46 ~model () in
      Printf.printf "  order=%d validity=%.0f%%\n" order
        (100.0 *. Comfort.Generator.validity_rate g ~n:200))
    [ 2; 3; 4; 6; 8 ];
  (* 5. dedup filter *)
  let res = Lazy.force comfort_result in
  Printf.printf
    "[5] Fig. 6 dedup tree: %d repeated miscompilations filtered across the campaign\n"
    res.Comfort.Campaign.cp_filtered_repeats;
  (* 6. feedback mutation of bug-exposing cases (§5.5 future work) *)
  Printf.printf "[6] feedback mutation of bug-exposing cases (equal budget %d):\n"
    (fig8_budget * 2 / 3);
  let fb = Comfort.Feedback.create (Comfort.Campaign.comfort_fuzzer ~seed:11 ()) in
  let fb_res =
    Comfort.Feedback.run_rounds ~rounds:4
      ~budget_per_round:(fig8_budget / 6) fb
  in
  let plain =
    Comfort.Campaign.run ~budget:(fig8_budget * 2 / 3)
      (Comfort.Campaign.comfort_fuzzer ~seed:11 ())
  in
  Printf.printf "  plain Comfort:    %d unique bugs\n"
    (List.length plain.Comfort.Campaign.cp_discoveries);
  Printf.printf "  Comfort+feedback: %d unique bugs (bank of %d exposing cases)\n"
    (List.length fb_res.Comfort.Campaign.cp_discoveries)
    (Comfort.Feedback.bank_size fb)

(* ---------- campaign throughput (parallel executor) ---------- *)

(* End-to-end campaign wall-clock against the full 102-testbed setup,
   across the (execution sharing on/off) x (slot compilation on/off) x
   (static reach analysis on/off) x (quirk specialisation on/off) x
   (1 job / N jobs) grid. Verifies on the way that every combination
   found the same discoveries in the same order (the executor's ordering
   guarantee, the sharing soundness argument of DESIGN.md §8, the
   compilation parity argument of §9, the reach invariance argument of
   §11, and the specialisation invisibility argument of §12), counts
   real interpreter executions via [Run.run_count] to report
   executions-per-case — the reach and specialize rows must execute
   exactly as often as the share+resolve row, since neither changes a
   sharing decision — records the whole-pipeline profile per row via
   [Run.Stage]/[Metrics.profile]: the disjoint pipeline stages
   (generate / screen / sweep / vote / attr / reduce / fold) with wall
   ns and allocated bytes each, the nested interpreter substages
   (parse / compile / realm-install / execute), the total driver-domain
   allocation, and the unaccounted residual — then emits the numbers as
   machine-readable BENCH_campaign.json for CI and EXPERIMENTS.md.
   Gates: every jobs=1 row must account for >= 90% of its wall clock,
   and the production row must stay within the allocation budget.

   On a single-CPU container the jobs>1 row is pure scheduling overhead,
   not a measurement of the executor, so it is skipped (and flagged in
   the JSON) when [Domain.recommended_domain_count] reports one core.
   Every row is measured as the best of three interleaved passes — see
   the comment at the measurement loop. *)
let campaign_bench () =
  header
    "Campaign throughput: sharing x compilation x reach x specialisation";
  let budget = 400 * scale in
  let testbeds = Engines.Engine.all_testbeds in
  let cores = Domain.recommended_domain_count () in
  let njobs =
    let env = Comfort.Executor.default_jobs () in
    if env > 1 then env else min 4 cores
  in
  let multi = cores > 1 && njobs > 1 in
  (* process-isolated workers row: measured once, up front — it must
     run before any jobs>1 row spawns a domain, which permanently
     disables fork — and outside the best-of-3 grid. The jobs=1
     profiler and allocation gates do not apply to it: the sweep
     executes in forked children, so driver-side stage probes and
     Gc.allocated_bytes see only the coordinator, and wall clock on a
     shared container is dominated by fork/IPC noise anyway. Its gates
     (identity, folded execution count) are checked against the grid's
     rows below. Skipped (and flagged in the JSON) where fork is
     unavailable. *)
  let wn = 2 in
  let workers_row =
    if not (Comfort.Coordinator.available ()) then None
    else begin
      let fz = Comfort.Campaign.comfort_fuzzer ~seed:11 () in
      let e0 = Jsinterp.Run.run_count () in
      let k0 = Comfort.Coordinator.stat_kills () in
      let r0 = Comfort.Coordinator.stat_respawns () in
      let t0 = Unix.gettimeofday () in
      let res =
        Comfort.Campaign.run ~testbeds ~budget ~jobs:1 ~share:true
          ~resolve:true ~reach:true ~specialize:true ~workers:wn fz
      in
      let dt = Unix.gettimeofday () -. t0 in
      let execs = Jsinterp.Run.run_count () - e0 in
      Some
        ( res,
          dt,
          execs,
          Comfort.Coordinator.stat_kills () - k0,
          Comfort.Coordinator.stat_respawns () - r0 )
    end
  in
  Jsinterp.Run.Stage.enabled := true;
  let measure ~jobs ~share ~resolve ~reach ~specialize =
    let fz = Comfort.Campaign.comfort_fuzzer ~seed:11 () in
    let e0 = Jsinterp.Run.run_count () in
    Jsinterp.Run.Stage.reset ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let res =
      Comfort.Campaign.run ~testbeds ~budget ~jobs ~share ~resolve ~reach
        ~specialize fz
    in
    let dt = Unix.gettimeofday () -. t0 in
    (* driver-domain allocation; at jobs=1 the whole campaign runs here,
       so this is the campaign's total allocation. (jobs>1 workers
       allocate on their own domains — their stage probes still land in
       the per-stage byte columns below.) *)
    let alloc = Gc.allocated_bytes () -. a0 in
    let profile =
      Comfort.Metrics.profile ~wall_ns:(int_of_float (dt *. 1e9))
    in
    let execs = Jsinterp.Run.run_count () - e0 in
    let per_case =
      Float.of_int execs /. Float.of_int res.Comfort.Campaign.cp_cases_run
    in
    Printf.printf
      "  share=%-5b resolve=%-5b reach=%-5b specialize=%-5b jobs=%d: %6.2fs wall, %6.1f cases/s, %5.1f executions/case, %d unique bugs, %4.1f%% unaccounted\n%!"
      share resolve reach specialize jobs dt
      (Float.of_int res.Comfort.Campaign.cp_cases_run /. dt)
      per_case
      (List.length res.Comfort.Campaign.cp_discoveries)
      profile.Comfort.Metrics.pr_unaccounted_pct;
    (res, dt, execs, per_case, (profile, alloc))
  in
  Printf.printf "budget=%d cases, %d testbeds, %d cores\n%!" budget
    (List.length testbeds) cores;
  if not multi then
    Printf.printf
      "  (single-CPU container: the parallel jobs>1 row is skipped — it \
       would measure scheduling overhead, not the executor)\n%!";
  let combos =
    [
      (false, false, false, false, 1);
      (true, false, false, false, 1);
      (false, true, false, false, 1);
      (true, true, false, false, 1);
      (true, true, true, false, 1);
      (true, true, true, true, 1);
    ]
    @ (if multi then [ (true, true, true, true, njobs) ] else [])
  in
  (* Each row is the best of three interleaved passes. A campaign row is
     deterministic (fixed fuzzer seed), so wall-clock spread between
     passes is scheduler and cache noise — on a shared single-CPU
     container it reaches ±30%, enough to flip the reach-vs-share+resolve
     comparison on a single measurement. Interleaving the passes (round
     robin over the combos, not three back-to-back runs of one combo)
     cancels slow drift; the minimum is the run the machine interfered
     with least. *)
  let reps = 3 in
  let best = Hashtbl.create 8 in
  for rep = 1 to reps do
    if reps > 1 then Printf.printf "  -- pass %d/%d --\n%!" rep reps;
    List.iter
      (fun ((share, resolve, reach, specialize, jobs) as c) ->
        let ((_, dt, _, _, _) as m) =
          measure ~jobs ~share ~resolve ~reach ~specialize
        in
        match Hashtbl.find_opt best c with
        | Some (_, bdt, _, _, _) when bdt <= dt -> ()
        | _ -> Hashtbl.replace best c m)
      combos
  done;
  let runs = List.map (fun c -> (c, Hashtbl.find best c)) combos in
  Jsinterp.Run.Stage.enabled := false;
  let key d = (d.Comfort.Campaign.disc_engine, d.Comfort.Campaign.disc_quirk) in
  let base, _, _, _, _ = List.assoc (false, false, false, false, 1) runs in
  let same =
    List.for_all
      (fun (_, (r, _, _, _, _)) ->
        List.map key r.Comfort.Campaign.cp_discoveries
        = List.map key base.Comfort.Campaign.cp_discoveries
        && r.Comfort.Campaign.cp_timeline = base.Comfort.Campaign.cp_timeline
        && r.Comfort.Campaign.cp_filtered_repeats
           = base.Comfort.Campaign.cp_filtered_repeats)
      runs
  in
  let _, direct_dt, direct_execs, direct_pc, _ =
    List.assoc (false, false, false, false, 1) runs
  in
  let _, shared_dt, shared_execs, shared_pc, _ =
    List.assoc (true, false, false, false, 1) runs
  in
  let _, resolved_dt, _, _, _ = List.assoc (false, true, false, false, 1) runs in
  let _, both_dt, _, _, _ = List.assoc (true, true, false, false, 1) runs in
  let reach_res, reach_dt, reach_execs, reach_pc, (reach_prof, _) =
    List.assoc (true, true, true, false, 1) runs
  in
  let spec_res, spec_dt, spec_execs, spec_pc, (_spec_prof, spec_alloc) =
    List.assoc (true, true, true, true, 1) runs
  in
  let _, _, _, _, (both_prof, _) =
    List.assoc (true, true, false, false, 1) runs
  in
  let reduction = Float.of_int direct_execs /. Float.of_int shared_execs in
  Printf.printf
    "execution sharing: %.1f -> %.1f executions/case (%.1fx fewer), %.2fx faster at 1 job\n"
    direct_pc shared_pc reduction (direct_dt /. shared_dt);
  Printf.printf
    "slot compilation: %.2fx over tree-walking direct, %.2fx on top of sharing (share+resolve vs share-only)\n"
    (direct_dt /. resolved_dt)
    (shared_dt /. both_dt);
  (* the reach row's marginal cost over plain share+resolve, attributed
     by the profiler: the sweep stage carries the cell bookkeeping and
     the reach-set forcing, the compile substage carries the
     consultation-folding pass. Since PR 9 packed the class-sharing
     check into two machine-word compares, the full-scan path the cell
     partition short-circuits is nearly free, so reach's residual is
     expected to sit at or slightly above zero in isolation — it pays
     off through the specialisation layer built on its cells (the
     [specialize] row below), not on this row. *)
  let stage_of rows name =
    match
      List.find_opt (fun r -> r.Comfort.Metrics.st_name = name) rows
    with
    | Some r -> r.Comfort.Metrics.st_ns
    | None -> 0
  in
  let reach_overhead_pct = 100.0 *. (reach_dt -. both_dt) /. both_dt in
  Printf.printf
    "static reach: %.1f executions/case (same executions as share+resolve: %b), %+.1f%% wall vs share+resolve (sweep %+.1fms, compile substage %+.1fms), %d reach-seeded shares\n"
    reach_pc
    (reach_execs = shared_execs)
    reach_overhead_pct
    (Float.of_int
       (stage_of reach_prof.Comfort.Metrics.pr_stages "sweep"
       - stage_of both_prof.Comfort.Metrics.pr_stages "sweep")
    /. 1e6)
    (Float.of_int
       (stage_of reach_prof.Comfort.Metrics.pr_substages "compile"
       - stage_of both_prof.Comfort.Metrics.pr_substages "compile")
    /. 1e6)
    reach_res.Comfort.Campaign.cp_reach_seeded;
  Printf.printf
    "specialisation: %.1f executions/case (same executions as share+resolve: %b), %.2fx vs reach row; %d specialised compilations, %d COW clones, %d IC hits\n"
    spec_pc
    (spec_execs = shared_execs)
    (reach_dt /. spec_dt)
    spec_res.Comfort.Campaign.cp_specialized
    spec_res.Comfort.Campaign.cp_cow_clones
    spec_res.Comfort.Campaign.cp_ic_hits;
  (if multi then
     let _, par_dt, _, _, _ = List.assoc (true, true, true, true, njobs) runs in
     Printf.printf
       "full fast path + %d jobs vs direct sequential: %.2fx; all results identical: %b\n"
       njobs (direct_dt /. par_dt) same
   else
     Printf.printf
       "full fast path vs direct sequential: %.2fx; all results identical: %b\n"
       (direct_dt /. spec_dt) same);
  (* the specialize row must not change a single sharing decision: same
     executions as the share+resolve baseline or the bench fails loudly *)
  if spec_execs <> shared_execs then begin
    Printf.eprintf
      "FAIL: specialisation changed the execution count (%d vs %d)\n"
      spec_execs shared_execs;
    exit 1
  end;
  if not same then begin
    Printf.eprintf "FAIL: the combinations disagree on the campaign report\n";
    exit 1
  end;
  (* profiler-accounting gate (jobs=1 rows only: a parallel row's stage
     sums measure CPU time, so "unaccounted wall" is not meaningful
     there): every sequential row must pin at least 90% of its wall
     clock to a named pipeline stage, or the profiler has a hole *)
  let max_unaccounted =
    List.fold_left
      (fun acc ((_, _, _, _, jobs), (_, _, _, _, (p, _))) ->
        if jobs = 1 then Float.max acc p.Comfort.Metrics.pr_unaccounted_pct
        else acc)
      0.0 runs
  in
  Printf.printf "profiler: max unaccounted wall across jobs=1 rows %.1f%%\n"
    max_unaccounted;
  if max_unaccounted >= 10.0 then begin
    Printf.eprintf
      "FAIL: profiler leaves %.1f%% of a row's wall clock unaccounted \
       (>= 10%%)\n"
      max_unaccounted;
    exit 1
  end;
  (* allocation-regression gate on the production row (everything on,
     jobs=1): scratch recycling and the quirk-word migration hold the
     steady state near 0.5 MB/case; the budget leaves headroom for
     machine variance but catches a reverted optimisation, which costs
     several MB/case *)
  let alloc_budget_per_case = 2_000_000.0 in
  let spec_alloc_per_case =
    spec_alloc /. Float.of_int spec_res.Comfort.Campaign.cp_cases_run
  in
  Printf.printf "allocation: %.0f bytes/case on the production row (budget %.0f)\n"
    spec_alloc_per_case alloc_budget_per_case;
  if spec_alloc_per_case > alloc_budget_per_case then begin
    Printf.eprintf
      "FAIL: production row allocates %.0f bytes/case (budget %.0f)\n"
      spec_alloc_per_case alloc_budget_per_case;
    exit 1
  end;
  (* gates on the process-isolated row measured up front (before the
     grid could spawn domains): identity with the in-process report and
     an exact folded execution count — the determinism contract of
     DESIGN.md §14 *)
  let workers_same =
    match workers_row with
    | None -> true
    | Some (r, _, _, _, _) ->
        List.map key r.Comfort.Campaign.cp_discoveries
        = List.map key base.Comfort.Campaign.cp_discoveries
        && r.Comfort.Campaign.cp_timeline = base.Comfort.Campaign.cp_timeline
        && r.Comfort.Campaign.cp_filtered_repeats
           = base.Comfort.Campaign.cp_filtered_repeats
  in
  let workers_execs_ok =
    match workers_row with
    | None -> true
    | Some (_, _, execs, _, _) -> execs = shared_execs
  in
  (match workers_row with
  | None ->
      Printf.printf
        "process isolation: fork unavailable on this host; workers row \
         skipped\n"
  | Some (_, dt, _, kills, respawns) ->
      Printf.printf
        "process isolation: %d workers, %.2fs wall (%.2fx vs in-process \
         production row), identical results: %b, folded executions match \
         share row: %b, %d respawns (%d hard-kills)\n"
        wn dt (spec_dt /. dt) workers_same workers_execs_ok respawns kills);
  if not workers_same then begin
    Printf.eprintf
      "FAIL: the process-isolated row disagrees with the in-process report\n";
    exit 1
  end;
  if not workers_execs_ok then begin
    Printf.eprintf
      "FAIL: the process-isolated row's folded execution count diverged\n";
    exit 1
  end;
  let json_stage_obj rows get =
    String.concat ", "
      (List.map
         (fun r -> Printf.sprintf "%S: %d" r.Comfort.Metrics.st_name (get r))
         rows)
  in
  let json_run
      ( (share, resolve, reach, specialize, jobs),
        (r, dt, execs, per_case, (p, alloc)) ) =
    Printf.sprintf
      {|    { "share": %b, "resolve": %b, "reach": %b, "specialize": %b, "jobs": %d, "wall_s": %.3f, "cases_per_s": %.1f, "executions": %d, "executions_per_case": %.1f, "reach_seeded": %d, "specialized": %d, "cow_clones": %d, "ic_hits": %d, "discoveries": %d,
      "alloc_bytes": %.0f, "alloc_bytes_per_case": %.0f, "accounted_ns": %d, "unaccounted_pct": %.1f,
      "pipeline_ns": { %s },
      "pipeline_bytes": { %s },
      "stages_ns": { %s },
      "stages_bytes": { %s } }|}
      share resolve reach specialize jobs dt
      (Float.of_int r.Comfort.Campaign.cp_cases_run /. dt)
      execs per_case r.Comfort.Campaign.cp_reach_seeded
      r.Comfort.Campaign.cp_specialized r.Comfort.Campaign.cp_cow_clones
      r.Comfort.Campaign.cp_ic_hits
      (List.length r.Comfort.Campaign.cp_discoveries)
      alloc
      (alloc /. Float.of_int r.Comfort.Campaign.cp_cases_run)
      p.Comfort.Metrics.pr_accounted_ns p.Comfort.Metrics.pr_unaccounted_pct
      (json_stage_obj p.Comfort.Metrics.pr_stages (fun r ->
           r.Comfort.Metrics.st_ns))
      (json_stage_obj p.Comfort.Metrics.pr_stages (fun r ->
           r.Comfort.Metrics.st_bytes))
      (json_stage_obj p.Comfort.Metrics.pr_substages (fun r ->
           r.Comfort.Metrics.st_ns))
      (json_stage_obj p.Comfort.Metrics.pr_substages (fun r ->
           r.Comfort.Metrics.st_bytes))
  in
  let json =
    Printf.sprintf
      {|{
  "budget": %d,
  "testbeds": %d,
  "cores": %d,
  "parallel_row_skipped": %b,
  "runs": [
%s
  ],
  "sharing_execution_reduction": %.2f,
  "sharing_speedup_1job": %.2f,
  "resolve_speedup_direct": %.2f,
  "resolve_speedup_shared": %.2f,
  "speedup_share_resolve_vs_direct": %.2f,
  "reach_executions_match_share": %b,
  "reach_overhead_pct": %.1f,
  "reach_plus_specialize_beats_share_resolve": %b,
  "reach_seeded": %d,
  "specialize_executions_match_share": %b,
  "specialize_speedup_vs_reach": %.2f,
  "specialized": %d,
  "cow_clones": %d,
  "ic_hits": %d,
  "max_unaccounted_pct": %.1f,
  "alloc_budget_bytes_per_case": %.0f,
  "alloc_bytes_per_case_production": %.0f,
  "identical_results": %b,
  "workers_row_skipped": %b,
  "workers": %d,
  "workers_wall_s": %.3f,
  "workers_identical_results": %b,
  "workers_executions_match_share": %b,
  "workers_respawns": %d,
  "workers_kills": %d
}
|}
      budget (List.length testbeds) cores (not multi)
      (String.concat ",\n" (List.map json_run runs))
      reduction
      (direct_dt /. shared_dt)
      (direct_dt /. resolved_dt)
      (shared_dt /. both_dt)
      (direct_dt /. both_dt)
      (reach_execs = shared_execs)
      reach_overhead_pct
      (spec_dt <= both_dt)
      reach_res.Comfort.Campaign.cp_reach_seeded
      (spec_execs = shared_execs)
      (reach_dt /. spec_dt)
      spec_res.Comfort.Campaign.cp_specialized
      spec_res.Comfort.Campaign.cp_cow_clones
      spec_res.Comfort.Campaign.cp_ic_hits
      max_unaccounted
      alloc_budget_per_case
      spec_alloc_per_case
      same
      (workers_row = None)
      wn
      (match workers_row with Some (_, dt, _, _, _) -> dt | None -> 0.0)
      workers_same workers_execs_ok
      (match workers_row with Some (_, _, _, _, r) -> r | None -> 0)
      (match workers_row with Some (_, _, _, k, _) -> k | None -> 0)
  in
  let oc = open_out "BENCH_campaign.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_campaign.json"

(* ---------- interpreter-core micro-benchmark ---------- *)

(* ns/op for the quirk-specialised and generic slot-compiled cores vs
   the tree walker on four workload shapes, each stressing a different
   part of the interpreter: deep lexical scope chains, function calls,
   string building, and property traffic. Each program is parsed once up
   front; the timed body is execution only (with [resolve] on, the
   closure compilation is cached in the front end after the first run,
   matching production where one compile serves a whole testbed sweep).
   Emits BENCH_interp.json. *)
let interp_programs =
  [
    ( "scope",
      {js|function f() {
  var a = 0, b = 1, c = 2, d = 3;
  for (var i = 0; i < 400; i = i + 1) {
    let t = a + b;
    a = b + c; b = c + d; c = d + t; d = t + i;
    a = a % 100003; b = b % 100003; c = c % 100003; d = d % 100003;
  }
  return a + b + c + d;
}
var r = 0;
for (var j = 0; j < 4; j = j + 1) { r = r + f(); }
print(r);|js}
    );
    ( "call",
      {js|function add(x, y) { return x + y; }
function mul(x, y) { return (x * y) % 10007; }
function step(s, i) { return add(mul(s, 3), mul(i, 7)) % 10007; }
var s = 1;
for (var i = 0; i < 900; i = i + 1) { s = step(s, i); }
print(s);|js}
    );
    ( "string",
      {js|var s = "";
for (var i = 0; i < 250; i = i + 1) { s = s + "ab" + i; }
var n = 0;
for (var j = 0; j < 200; j = j + 1) { n = n + s.charCodeAt(j); }
print(s.length + ":" + n);|js}
    );
    ( "property",
      {js|var o = { n: 0, m: 1 };
for (var i = 0; i < 700; i = i + 1) {
  o.n = (o.n + o.m) % 99991;
  o.m = o.m + 1;
  o["k" + (i % 7)] = o.n;
}
print(o.n + ":" + o.k3);|js}
    );
    ( "array",
      {js|var a = [];
for (var i = 0; i < 300; i = i + 1) { a[i] = (i * 7) % 101; }
var obs = [];
var items = [];
for (var j = 0; j < 300; j = j + 1) {
  obs[obs.length] = items.push(a[j] + j);
  a[j] += items[j] % 13;
}
var s = 0;
for (var k = 0; k < 300; k = k + 1) { s = (s + a[k] * obs[k]) % 100003; }
print(s + ":" + items.length);|js}
    );
  ]

let interp_bench () =
  header "Interpreter core: specialised vs slot-compiled vs tree-walked (ns/op)";
  let fuel = 5_000_000 in
  (* three-way parity sanity check before timing anything: the
     specialised core must be observationally identical to the generic
     compiled core and the tree walker, fuel accounting included *)
  List.iter
    (fun (name, src) ->
      let t = Jsinterp.Run.run ~fuel ~resolve:false ~specialize:false src in
      let c = Jsinterp.Run.run ~fuel ~resolve:true ~specialize:false src in
      let s = Jsinterp.Run.run ~fuel ~resolve:true ~specialize:true src in
      let agrees (a : Jsinterp.Run.result) (b : Jsinterp.Run.result) =
        a.Jsinterp.Run.r_status = b.Jsinterp.Run.r_status
        && a.Jsinterp.Run.r_output = b.Jsinterp.Run.r_output
        && a.Jsinterp.Run.r_fuel_used = b.Jsinterp.Run.r_fuel_used
      in
      if
        t.Jsinterp.Run.r_status <> Jsinterp.Run.Sts_normal
        || (not (agrees t c))
        || not (agrees t s)
      then (
        Printf.eprintf
          "interp bench %s: modes disagree (tree: %s %S fuel=%d / compiled: %s %S fuel=%d / specialised: %s %S fuel=%d)\n"
          name
          (Jsinterp.Run.status_to_string t.Jsinterp.Run.r_status)
          t.Jsinterp.Run.r_output t.Jsinterp.Run.r_fuel_used
          (Jsinterp.Run.status_to_string c.Jsinterp.Run.r_status)
          c.Jsinterp.Run.r_output c.Jsinterp.Run.r_fuel_used
          (Jsinterp.Run.status_to_string s.Jsinterp.Run.r_status)
          s.Jsinterp.Run.r_output s.Jsinterp.Run.r_fuel_used;
        exit 1))
    interp_programs;
  let open Bechamel in
  let open Toolkit in
  let make_test ~mode (name, src) =
    (* one front end per (program, mode): compiled modes reuse their
       cached compilation across iterations, tree mode never compiles *)
    let fe = Jsinterp.Run.parse_frontend src in
    let resolve = mode <> "tree" in
    let specialize = mode = "specialized" in
    Test.make
      ~name:(Printf.sprintf "%s/%s" name mode)
      (Staged.stage (fun () ->
           ignore
             (Jsinterp.Run.run ~fuel ~resolve ~specialize ~frontend:fe src)))
  in
  let modes = [ "tree"; "resolved"; "specialized" ] in
  let tests =
    Test.make_grouped ~name:"interp"
      (List.concat_map
         (fun p -> List.map (fun mode -> make_test ~mode p) modes)
         interp_programs)
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimate name =
    match Hashtbl.find_opt results name with
    | Some r -> (
        match Analyze.OLS.estimates r with Some (t :: _) -> Some t | _ -> None)
    | None -> None
  in
  let rows =
    List.filter_map
      (fun (name, _) ->
        match
          ( estimate (Printf.sprintf "interp/%s/tree" name),
            estimate (Printf.sprintf "interp/%s/resolved" name),
            estimate (Printf.sprintf "interp/%s/specialized" name) )
        with
        | Some tree, Some resolved, Some specialized ->
            Some (name, tree, resolved, specialized)
        | _ -> None)
      interp_programs
  in
  List.iter
    (fun (name, tree, resolved, specialized) ->
      Printf.printf
        "  %-10s tree %10.0f ns/op   resolved %10.0f ns/op (%.2fx)   specialized %10.0f ns/op (%.2fx)\n"
        name tree resolved (tree /. resolved) specialized
        (tree /. specialized))
    rows;
  let json =
    Printf.sprintf
      {|{
  "fuel": %d,
  "benchmarks": [
%s
  ]
}
|}
      fuel
      (String.concat ",\n"
         (List.map
            (fun (name, tree, resolved, specialized) ->
              Printf.sprintf
                {|    { "name": %S, "tree_ns_per_op": %.0f, "resolved_ns_per_op": %.0f, "specialized_ns_per_op": %.0f, "speedup": %.2f, "specialized_speedup": %.2f }|}
                name tree resolved specialized (tree /. resolved)
                (tree /. specialized))
            rows))
  in
  let oc = open_out "BENCH_interp.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_interp.json"

(* ---------- Bechamel micro-benchmarks ---------- *)

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let sample = List.nth Lm.Js_corpus.programs 3 in
  let parsed = Jsparse.Parser.parse_program sample in
  let model = Lazy.force Lm.Model.comfort in
  let db = Lazy.force Specdb.Db.standard in
  let rng = Cutil.Rng.create 99 in
  let tests =
    Test.make_grouped ~name:"comfort"
      [
        Test.make ~name:"parse"
          (Staged.stage (fun () -> ignore (Jsparse.Parser.parse_program sample)));
        Test.make ~name:"print"
          (Staged.stage (fun () ->
               ignore (Jsast.Printer.program_to_string parsed)));
        Test.make ~name:"interp-run"
          (Staged.stage (fun () -> ignore (Jsinterp.Run.run ~fuel:100_000 sample)));
        Test.make ~name:"lm-sample"
          (Staged.stage (fun () ->
               ignore
                 (Lm.Model.generate model rng ~prefix:"var a = function(x) {"
                    ~k:10 ~max_tokens:120 ~stop:(Comfort.Generator.brace_stop ()))));
        Test.make ~name:"spec-lookup"
          (Staged.stage (fun () -> ignore (Specdb.Db.lookup db "substr")));
        Test.make ~name:"regex-exec"
          (Staged.stage
             (let prog = Jsinterp.Regex.compile "(a|b)+c" "" in
              fun () -> ignore (Jsinterp.Regex.exec prog "abababac" 0)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some (t :: _) -> Printf.printf "  %-28s %12.1f ns/run\n" name t
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    (List.sort compare rows)

(* ---------- main ---------- *)

let all () =
  table1 ();
  spec ();
  listings ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  fig7 ();
  fig8 ();
  fig9 ();
  ablate ();
  campaign_bench ();
  interp_bench ();
  micro ()

let () =
  let t0 = Unix.gettimeofday () in
  (match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "table4" -> table4 ()
  | "table5" -> table5 ()
  | "fig7" -> fig7 ()
  | "fig8" -> fig8 ()
  | "fig9" -> fig9 ()
  | "listings" -> listings ()
  | "spec" -> spec ()
  | "ablate" -> ablate ()
  | "campaign" -> campaign_bench ()
  | "interp" -> interp_bench ()
  | "micro" -> micro ()
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown experiment %s (try: table1..5, fig7..9, listings, spec, ablate, campaign, interp, micro, all)\n"
        other;
      exit 1);
  Printf.printf "\n[done in %.1fs]\n" (Unix.gettimeofday () -. t0)
