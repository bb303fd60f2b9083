(* The benchmark's OCaml half: one process per measured pass, set-up
   sample, correctness check or traced run. perfbench/run.py drives it and
   aggregates; each subcommand prints one JSON object on stdout.

     bench.exe setup  --workload W --seeds S
     bench.exe pass   --workload W --seeds S
     bench.exe oracle --workload W --seeds S --sample-seed N
     bench.exe expect-cli --seeds S
     bench.exe seeds  --workload W --seeds S
     bench.exe trace  --workload W --seeds S --spans-out FILE

   The cli-cold workload's timed passes spawn the comfort binary from
   run.py; here it only has its in-process replay (trace), its oracle
   sample and the in-process expectation the CLI output is checked
   against. *)

open Comfort
open Perfbench

let now () = Unix.gettimeofday ()

(* ---------- workloads ---------- *)

type campaign = {
  c_label : string;
  c_seed : int;
  c_make : unit -> Campaign.fuzzer;  (* a fresh fuzzer, same stream *)
  c_fuzzer : Campaign.fuzzer;         (* the one built during set-up *)
  c_comfort : bool;  (* the Comfort LM + datagen fuzzer (replayed in parts) *)
  c_budget : int;
  c_testbeds : Engines.Engine.testbed list;
  c_reduce : bool;
}

let workloads = [ "comfort102"; "baselines102"; "cli-cold"; "workers1" ]

let check_workload w =
  if not (List.mem w workloads) then
    invalid_arg
      (Printf.sprintf "unknown workload %S (one of %s)" w
         (String.concat ", " workloads))

(* The seed lists are fixed by rule, not by outcome: seeds 1-8 include
   the reference-timeout-heavy seeds 2 and 5; workers1 takes the first
   half of that list (seed 2 included), because a campaign through a
   worker process costs more wall and the benchmark's runs have a time
   limit; the baselines run at the library's default seed. The held-out
   lists are for confirming a claim on seeds it was not developed
   against. *)
let named_seeds workload name =
  match (workload, name) with
  | "baselines102", "rule" -> Some [ 20 ]
  | "baselines102", "heldout" -> Some [ 40 ]
  | "workers1", "rule" -> Some (List.init 4 (fun i -> i + 1))
  | "workers1", "heldout" -> Some (List.init 4 (fun i -> i + 9))
  | _, "rule" -> Some (List.init 8 (fun i -> i + 1))
  | _, "heldout" -> Some (List.init 8 (fun i -> i + 9))
  | _ -> None

(* "rule", "heldout", or a comma-separated list of seeds and A-B ranges *)
let parse_seeds workload (s : string) : int list =
  match named_seeds workload s with
  | Some l -> l
  | None ->
      String.split_on_char ',' s
      |> List.concat_map (fun part ->
             match String.split_on_char '-' (String.trim part) with
             | [ a ] -> [ int_of_string a ]
             | [ a; b ] ->
                 let a = int_of_string a and b = int_of_string b in
                 if b < a then invalid_arg ("bad seed range " ^ part);
                 List.init (b - a + 1) (fun i -> a + i)
             | _ -> invalid_arg ("bad seed list " ^ s))

let comfort_campaign ~budget ~testbeds ~reduce s =
  let make () = Campaign.comfort_fuzzer ~seed:s () in
  {
    c_label = Printf.sprintf "comfort-%d" s;
    c_seed = s;
    c_make = make;
    c_fuzzer = make ();
    c_comfort = true;
    c_budget = budget;
    c_testbeds = testbeds;
    c_reduce = reduce;
  }

let build_campaigns workload seeds : campaign list =
  let all = Engines.Engine.all_testbeds in
  match workload with
  | "comfort102" | "workers1" ->
      List.map (comfort_campaign ~budget:400 ~testbeds:all ~reduce:true) seeds
  | "cli-cold" ->
      (* `comfort fuzz --budget 100 --seed s` with the CLI's defaults *)
      List.map
        (comfort_campaign ~budget:100
           ~testbeds:(Campaign.default_testbeds ()) ~reduce:false)
        seeds
  | _ ->
      List.concat_map
        (fun s ->
          List.mapi
            (fun k (fz : Campaign.fuzzer) ->
              {
                c_label = Printf.sprintf "%s-%d" fz.Campaign.fz_name s;
                c_seed = s;
                c_make = (fun () -> List.nth (Baselines.Fuzzers.all ~seed:s ()) k);
                c_fuzzer = fz;
                c_comfort = false;
                c_budget = 1000;
                c_testbeds = all;
                c_reduce = false;
              })
            (Baselines.Fuzzers.all ~seed:s ()))
        seeds

(* One forked worker: the coordinator and the pipe are measured while
   the campaign still runs on one core at a time, as on the other
   workloads. More workers than the host has cores to spare would time
   the scheduler and the neighbours' load, not the program. *)
let workers_of workload = if workload = "workers1" then 1 else 0

(* Set-up: everything before the first case can be drawn. With a span
   recorder, each part is also recorded as a span. *)
type setup = {
  s_campaigns : campaign list;
  s_total : float;
  s_lm : float;      (* all language models trained for the workload *)
  s_specdb : float;
}

let setup ?tr workload seeds : setup =
  let span name f =
    match tr with Some t -> Spans.with_span t name f | None -> f ()
  in
  let timed name f =
    let t0 = now () in
    let v = span name f in
    (v, now () -. t0)
  in
  let t0 = now () in
  let (), lm1 = timed "lm" (fun () -> ignore (Lazy.force Lm.Model.comfort)) in
  let (), lm2 =
    if workload = "baselines102" then
      timed "lm" (fun () -> ignore (Lazy.force Lm.Model.deepsmith))
    else ((), 0.0)
  in
  let (), specdb =
    timed "specdb" (fun () -> ignore (Lazy.force Specdb.Db.standard))
  in
  let cs, _ = timed "fuzzers" (fun () -> build_campaigns workload seeds) in
  { s_campaigns = cs; s_total = now () -. t0; s_lm = lm1 +. lm2; s_specdb = specdb }

let by_mode (tbs : Engines.Engine.testbed list) =
  List.filter (fun l -> l <> [])
    [
      List.filter (fun tb -> tb.Engines.Engine.tb_mode = Engines.Engine.Normal) tbs;
      List.filter (fun tb -> tb.Engines.Engine.tb_mode = Engines.Engine.Strict) tbs;
    ]

(* ---------- JSON out ---------- *)

type json =
  | F of float
  | I of int
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let rec to_json = function
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> Printf.sprintf "%S" s
  | B b -> string_of_bool b
  | L l -> "[" ^ String.concat ", " (List.map to_json l) ^ "]"
  | O kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_json v)) kv)
      ^ "}"

let emit j = print_endline (to_json j)

let heap_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Cases a campaign lost: skipped by the supervisor or never run because
   it aborted. *)
let lost c (r : Campaign.result) =
  r.Campaign.cp_skipped_cases + max 0 (c.c_budget - r.Campaign.cp_cases_run)

let run_campaign ~workers c =
  if workers > 0 then begin
    (* a silent fall-back to the in-process pool would measure the wrong
       thing *)
    if not (Coordinator.available ()) then
      failwith "worker processes unavailable (fork impossible)";
    Campaign.run ~testbeds:c.c_testbeds ~budget:c.c_budget ~reduce:c.c_reduce
      ~workers c.c_fuzzer
  end
  else
    Campaign.run ~testbeds:c.c_testbeds ~budget:c.c_budget ~reduce:c.c_reduce
      c.c_fuzzer

(* ---------- subcommands ---------- *)

(* Set-up and passes report the wall clock at the start and end of each
   timed part, so that run.py can scale each part by the host-speed
   samples taken during it (see calib.ml). *)
let cmd_setup workload seeds =
  let t0 = now () in
  let s = setup workload seeds in
  emit (O [ ("setup_s", F s.s_total); ("t0", F t0); ("t1", F (now ())) ])

let cmd_pass workload seeds =
  let t0 = now () in
  let s = setup workload seeds in
  let t1 = now () in
  let workers = workers_of workload in
  let results =
    List.map
      (fun c ->
        let t0 = now () in
        let r = run_campaign ~workers c in
        (c, r, now () -. t0))
      s.s_campaigns
  in
  let t2 = now () in
  let digests =
    List.map (fun (c, r, _) -> (c.c_label, Report_digest.of_result r)) results
  in
  let sum f = List.fold_left (fun a x -> a + f x) 0 results in
  emit
    (O
       [
         ("setup_s", F s.s_total);
         ("campaign_s", F (List.fold_left (fun a (_, _, w) -> a +. w) 0.0 results));
         ("wall_s", F (t2 -. t0));
         (* set-up from t0 to t1, the campaigns from t1 to t2 *)
         ("t0", F t0);
         ("t1", F t1);
         ("t2", F t2);
         ("cases", I (sum (fun (_, r, _) -> r.Campaign.cp_cases_run)));
         ("unique_bugs", I (sum (fun (_, r, _) -> List.length r.Campaign.cp_discoveries)));
         ("failed", I (sum (fun (c, r, _) -> lost c r)));
         ("peak_heap_mb", F (heap_mb ()));
         ("digest", S (Report_digest.combine digests));
         ("digests", O (List.map (fun (l, d) -> (l, S d)) digests));
       ])

(* Mirror of Campaign.run's draw loop: [budget] screen-surviving cases,
   replacements drawn for dropped ones, at most three stalled rounds. *)
type gathered = {
  g_cases : Testcase.t array;
  g_screened : int;       (* candidates screened *)
  g_dropped : (string * int) list;
  g_repaired : int;
}

let gather ?(screen = fun f -> f ()) ~batch budget : gathered =
  let kept = ref [] and n_kept = ref 0 and stalls = ref 0 in
  let screened = ref 0 and repaired = ref 0 in
  let reasons = Hashtbl.create 8 in
  while !n_kept < budget && !stalls < 3 do
    let progressed = ref false in
    List.iter
      (fun tc ->
        if !n_kept < budget then begin
          incr screened;
          match screen (fun () -> Campaign.screen_case tc) with
          | Campaign.S_kept tc ->
              kept := tc :: !kept;
              incr n_kept;
              progressed := true
          | Campaign.S_repaired tc ->
              kept := tc :: !kept;
              incr n_kept;
              incr repaired;
              progressed := true
          | Campaign.S_dropped why ->
              Hashtbl.replace reasons why
                (1 + Option.value (Hashtbl.find_opt reasons why) ~default:0)
        end)
      (batch (budget - !n_kept));
    if !progressed then stalls := 0 else incr stalls
  done;
  {
    g_cases = Array.of_list (List.rev !kept);
    g_screened = !screened;
    g_dropped =
      Hashtbl.fold (fun r n l -> (r, n) :: l) reasons [] |> List.sort compare;
    g_repaired = !repaired;
  }

(* Cases of one campaign the oracle check re-judges. *)
let oracle_cases = 16

(* Re-judge a deterministic sample of one campaign's cases through the
   reference oracle (direct per testbed, tree-walked, fresh realm) and
   compare with the production path's report. The production side runs
   as the campaign's workers do: one sharing cache per case, handed to
   the sweep of every mode group. *)
let cmd_oracle workload seeds sample_seed =
  let s = setup workload seeds in
  let rng = Random.State.make [| sample_seed |] in
  let cs = Array.of_list s.s_campaigns in
  let c = cs.(Random.State.int rng (Array.length cs)) in
  let g = gather ~batch:c.c_fuzzer.Campaign.fz_batch c.c_budget in
  let n = Array.length g.g_cases in
  let picks =
    List.init (min oracle_cases n) (fun _ -> Random.State.int rng n)
    |> List.sort_uniq compare
  in
  let mismatches = ref [] in
  List.iter
    (fun i ->
      let tc = g.g_cases.(i) in
      let ec = Engines.Engine.Exec.cache tc.Testcase.tc_source in
      List.iter
        (fun tbs ->
          let prod = Difftest.run_case ~cache:ec tbs tc in
          let oracle =
            Difftest.run_case ~share:false ~resolve:false ~reach:false
              ~specialize:false tbs tc
          in
          if not (Difftest.report_equal prod oracle) then
            mismatches := i :: !mismatches)
        (by_mode c.c_testbeds))
    picks;
  emit
    (O
       [
         ("campaign", S c.c_label);
         ("checked", I (List.length picks));
         ("cases", L (List.map (fun i -> I i) picks));
         ("mismatches", L (List.map (fun i -> I i) (List.sort_uniq compare !mismatches)));
       ])

(* What `comfort fuzz --budget 100 --seed s` must report, computed in
   process: the unique-bug count and one "case engine quirk" entry per
   discovery. *)
let cmd_expect_cli seeds =
  let s = setup "cli-cold" seeds in
  emit
    (L
       (List.map
          (fun c ->
            let r = run_campaign ~workers:0 c in
            O
              [
                ("seed", I c.c_seed);
                ("unique_bugs", I (List.length r.Campaign.cp_discoveries));
                ( "discoveries",
                  L
                    (List.map
                       (fun (d : Campaign.discovery) ->
                         S
                           (Printf.sprintf "%d %s %s" d.Campaign.disc_at
                              (Engines.Registry.engine_name d.Campaign.disc_engine)
                              (Jsinterp.Quirk.to_string d.Campaign.disc_quirk)))
                       r.Campaign.cp_discoveries) );
              ])
          s.s_campaigns))

(* ---------- the traced run ---------- *)

(* The Comfort fuzzer's batch, rebuilt from its public parts so the LM
   generator and the spec-guided data generator get spans of their own.
   Same seeds and the same refill policy as [Campaign.comfort_fuzzer]. *)
let comfort_batch tr ~seed ~programs ~mutated ~mutants =
  let gen = Generator.create ~seed () in
  let dg = Datagen.create ~seed:(seed + 1) ~db:(Lazy.force Specdb.Db.standard) () in
  let queue = Queue.create () in
  let rec refill n =
    if n > 0 then
      match Spans.with_span tr "generator" (fun () -> Generator.generate gen ~n:1) with
      | [] -> ()
      | tc :: _ ->
          incr programs;
          Queue.add tc queue;
          let ms = Spans.with_span tr "datagen" (fun () -> Datagen.mutate dg tc) in
          incr mutated;
          mutants := !mutants + List.length ms;
          List.iter (fun m -> Queue.add m queue) ms;
          refill (n - 1 - List.length ms)
  in
  fun n ->
    let stalls = ref 0 in
    while Queue.length queue < n do
      let before = Queue.length queue in
      refill (n - before);
      if Queue.length queue = before then begin
        incr stalls;
        if !stalls >= 20 then failwith "comfort_batch: generator stalled"
      end
      else stalls := 0
    done;
    List.init n (fun _ -> Queue.pop queue)

type acc = {
  mutable programs : int;   (* programs the generator produced *)
  mutable mutated : int;    (* programs datagen mutated *)
  mutable mutants : int;
  mutable screened : int;
  mutable kept : int;
  mutable cases : int;
  mutable executions : int;
  mutable tested : int;     (* testbed runs the sweeps reported *)
  mutable case_ms : float list;
  mutable timeout_ms : float;  (* case time of reference-timeout cases *)
  mutable timeouts : int;
  mutable ref_ms : float list;
  mutable ref_ns : float;
  mutable ref_fuel : int;
  mutable ipc_bytes : int;
  mutable reduced : int;
  mutable probes : int;
  mutable accepts : int;
  mutable unfaithful : string list;
}

let new_acc () =
  {
    programs = 0; mutated = 0; mutants = 0; screened = 0; kept = 0; cases = 0;
    executions = 0; tested = 0; case_ms = []; timeout_ms = 0.0; timeouts = 0;
    ref_ms = []; ref_ns = 0.0; ref_fuel = 0; ipc_bytes = 0;
    reduced = 0; probes = 0; accepts = 0; unfaithful = [];
  }

let ms_of_ns ns = Float.of_int ns /. 1e6

(* Replay one campaign through the layers' public entry points under a
   root span. *)
let replay tr acc c (res : Campaign.result) : unit =
  let complain fmt =
    Printf.ksprintf (fun m -> acc.unfaithful <- (c.c_label ^ ": " ^ m) :: acc.unfaithful) fmt
  in
  Spans.with_span tr "campaign" @@ fun () ->
  let programs = ref 0 and mutated = ref 0 and mutants = ref 0 in
  let batch =
    if c.c_comfort then comfort_batch tr ~seed:c.c_seed ~programs ~mutated ~mutants
    else
      let fz = c.c_make () in
      fun n ->
        let l = Spans.with_span tr "generator" (fun () -> fz.Campaign.fz_batch n) in
        programs := !programs + List.length l;
        l
  in
  let g =
    gather ~screen:(fun f -> Spans.with_span tr "screen" f) ~batch c.c_budget
  in
  acc.programs <- acc.programs + !programs;
  acc.mutated <- acc.mutated + !mutated;
  acc.mutants <- acc.mutants + !mutants;
  acc.screened <- acc.screened + g.g_screened;
  acc.kept <- acc.kept + Array.length g.g_cases;
  if g.g_dropped <> res.Campaign.cp_screen_reasons
     || g.g_repaired <> res.Campaign.cp_repaired
  then complain "screen counts differ from the report";
  let discs_at = Hashtbl.create 64 in
  List.iter
    (fun (d : Campaign.discovery) ->
      let i = d.Campaign.disc_at - 1 in
      if i >= Array.length g.g_cases
         || g.g_cases.(i).Testcase.tc_source <> d.Campaign.disc_case.Testcase.tc_source
      then complain "case %d differs from the discovery's case" i;
      Hashtbl.replace discs_at i
        (d :: Option.value (Hashtbl.find_opt discs_at i) ~default:[]))
    res.Campaign.cp_discoveries;
  let groups = by_mode c.c_testbeds in
  Array.iteri
    (fun i tc ->
      let t0 = Spans.now_ns () in
      let reports =
        Spans.with_span tr ~case_id:i "case" (fun () ->
            (* the engines layer's work (executions, base parses,
               class sharing, reach) happens inside the sweeps *)
            let ec = Engines.Engine.Exec.cache tc.Testcase.tc_source in
            List.map
              (fun tbs ->
                let e0 = Jsinterp.Run.run_count () in
                let sw =
                  Spans.with_span tr "difftest.sweep" (fun () ->
                      Difftest.sweep_case ~cache:ec tbs tc)
                in
                acc.executions <- acc.executions + Jsinterp.Run.run_count () - e0;
                Spans.with_span tr "difftest.vote" (fun () -> Difftest.judge sw))
              groups)
      in
      let case_ms = ms_of_ns (Spans.now_ns () - t0) in
      acc.case_ms <- case_ms :: acc.case_ms;
      acc.cases <- acc.cases + 1;
      List.iter
        (fun r -> acc.tested <- acc.tested + r.Difftest.cr_tested)
        reports;
      Spans.with_span tr ~case_id:i "ipc" (fun () ->
          acc.ipc_bytes <- acc.ipc_bytes + String.length (Marshal.to_string reports []));
      (* reference-timeout verdict and interpreter cost, per case *)
      Spans.with_span tr ~case_id:i "jsinterp" (fun () ->
          let r0 = Spans.now_ns () in
          let r =
            Engines.Engine.run_reference ~fuel:Difftest.campaign_fuel
              tc.Testcase.tc_source
          in
          let ns = Spans.now_ns () - r0 in
          acc.ref_ms <- ms_of_ns ns :: acc.ref_ms;
          acc.ref_ns <- acc.ref_ns +. Float.of_int ns;
          acc.ref_fuel <- acc.ref_fuel + r.Jsinterp.Run.r_fuel_used;
          if r.Jsinterp.Run.r_status = Jsinterp.Run.Sts_timeout then begin
            acc.timeouts <- acc.timeouts + 1;
            acc.timeout_ms <- acc.timeout_ms +. case_ms
          end);
      Spans.with_span tr ~case_id:i "jsparse" (fun () ->
          try ignore (Jsparse.Parser.parse_program tc.Testcase.tc_source)
          with Jsparse.Parser.Syntax_error _ -> ());
      (* the campaign reduces each new discovery's case right after it is
         judged; the deviation it reduced against is the first one of the
         discovering testbed's engine and mode with that behaviour whose
         run fired the quirk *)
      List.iter
        (fun (d : Campaign.discovery) ->
          match d.Campaign.disc_reduced with
          | None -> ()
          | Some expected -> (
              let matches (dev : Difftest.deviation) =
                let tb = dev.Difftest.d_testbed in
                tb.Engines.Engine.tb_config.Engines.Registry.cfg_engine
                = d.Campaign.disc_engine
                && tb.Engines.Engine.tb_mode = d.Campaign.disc_mode
                && dev.Difftest.d_behavior = d.Campaign.disc_behavior
                && Jsinterp.Quirk.Set.mem d.Campaign.disc_quirk dev.Difftest.d_fired
              in
              match
                List.find_opt matches
                  (List.concat_map (fun r -> r.Difftest.cr_deviations) reports)
              with
              | None -> complain "no deviation for the discovery at case %d" i
              | Some dev ->
                  let st =
                    Reducer.still_triggers_deviation ~reach:false
                      dev.Difftest.d_testbed dev
                  in
                  let still src =
                    acc.probes <- acc.probes + 1;
                    let ok = st src in
                    if ok then acc.accepts <- acc.accepts + 1;
                    ok
                  in
                  let got =
                    Spans.with_span tr ~case_id:i "reducer" (fun () ->
                        Reducer.reduce ~still_triggers:still tc.Testcase.tc_source)
                  in
                  acc.reduced <- acc.reduced + 1;
                  if got <> expected then
                    complain "reduction of the discovery at case %d differs" i))
        (List.rev (Option.value (Hashtbl.find_opt discs_at i) ~default:[])))
    g.g_cases

(* Spans that measure the workload's own work, as opposed to the probes
   (ipc, jsinterp, jsparse) the traced run adds to read layer costs the
   campaign does not expose separately. *)
let probe_spans = [ "ipc"; "jsinterp"; "jsparse" ]

(* The layers whose self time is reported, whether or not the workload
   ran them. *)
let layer_spans =
  [ "generator"; "datagen"; "screen"; "difftest.sweep"; "difftest.vote";
    "reducer" ]

let cmd_trace workload seeds spans_out =
  let tr = Spans.create () in
  let s = setup ~tr workload seeds in
  let workers = workers_of workload in
  (* Per campaign, in turn: the production run untimed by any probe, the
     same campaign under the program's own profiler (in process; its
     report must equal the production one, which on workers1 compares
     the forked pool with the in-process path), then the traced replay.
     The heap is compacted before each, so no phase inherits another's
     heap. *)
  let acc = new_acc () in
  let untraced_s = ref 0.0 and profiled_ns = ref 0 and replay_s = ref 0.0 in
  let alloc = ref 0.0 and major_gcs = ref 0 and cases_run = ref 0 in
  let lost_cases = ref 0 and digest_mismatch = ref [] in
  let r0 = Coordinator.stat_respawns ()
  and k0 = Coordinator.stat_kills ()
  and h0 = Coordinator.stat_hangs () in
  Jsinterp.Run.Stage.reset ();
  List.iter
    (fun c ->
      Gc.compact ();
      let gc0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
      let t0 = now () in
      let r = run_campaign ~workers c in
      untraced_s := !untraced_s +. (now () -. t0);
      alloc := !alloc +. (Gc.allocated_bytes () -. a0);
      major_gcs :=
        !major_gcs + (Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections;
      cases_run := !cases_run + r.Campaign.cp_cases_run;
      lost_cases := !lost_cases + lost c r;
      Gc.compact ();
      Jsinterp.Run.Stage.enabled := true;
      let t0 = now () in
      let pr = run_campaign ~workers:0 { c with c_fuzzer = c.c_make () } in
      profiled_ns := !profiled_ns + int_of_float ((now () -. t0) *. 1e9);
      Jsinterp.Run.Stage.enabled := false;
      if Report_digest.of_result r <> Report_digest.of_result pr then
        digest_mismatch := c.c_label :: !digest_mismatch;
      Gc.compact ();
      let t0 = now () in
      replay tr acc c r;
      replay_s := !replay_s +. (now () -. t0))
    s.s_campaigns;
  let respawns = Coordinator.stat_respawns () - r0
  and kills = Coordinator.stat_kills () - k0
  and hangs = Coordinator.stat_hangs () - h0 in
  let profile = Metrics.profile ~wall_ns:!profiled_ns in
  let untraced_s = !untraced_s and replay_s = !replay_s in
  let cases_run = !cases_run in
  let sps = Spans.spans tr in
  Spans.write spans_out sps;
  let roots = List.filter (fun sp -> sp.Spans.name = "campaign") sps in
  let root_ids = List.map (fun sp -> sp.Spans.id) roots in
  let layer_ns, probe_ns =
    List.fold_left
      (fun (l, p) sp ->
        if List.mem sp.Spans.parent root_ids then
          if List.mem sp.Spans.name probe_spans then (l, p + Spans.duration sp)
          else (l + Spans.duration sp, p)
        else (l, p))
      (0, 0) sps
  in
  let root_ns = List.fold_left (fun a sp -> a + Spans.duration sp) 0 roots in
  let self = Spans.self_by_name sps in
  let total = Spans.total_by_name sps in
  let tot name = Option.value (List.assoc_opt name total) ~default:0 in
  let per n d = if d = 0 then 0.0 else n /. Float.of_int d in
  let residual_ms = (untraced_s *. 1e3) -. ms_of_ns layer_ns in
  (* the profiler's stages against the spans around the same calls *)
  let stage name =
    match
      List.find_opt (fun r -> r.Metrics.st_name = name) profile.Metrics.pr_stages
    with
    | Some r -> r.Metrics.st_ns
    | None -> 0
  in
  let pairs =
    [
      ("generate", stage "generate", tot "generator" + tot "datagen");
      ("screen", stage "screen", tot "screen");
      ("sweep", stage "sweep", tot "difftest.sweep");
      ("vote", stage "vote", tot "difftest.vote");
      ("reduce", stage "reduce", tot "reducer");
    ]
  in
  let prof_sum = List.fold_left (fun a (_, p, _) -> a + p) 0 pairs in
  let span_sum = List.fold_left (fun a (_, _, sp) -> a + sp) 0 pairs in
  prerr_endline "stage      profiler_ms   spans_ms";
  List.iter
    (fun (n, p, sp) ->
      Printf.eprintf "%-9s %11.1f %10.1f\n" n (ms_of_ns p) (ms_of_ns sp))
    pairs;
  Printf.eprintf "%-9s %11.1f %10.1f\n%!" "attr+fold"
    (ms_of_ns (stage "attr" + stage "fold")) residual_ms;
  let case_tail = Stats.tail acc.case_ms and ref_tail = Stats.tail acc.ref_ms in
  let tail_fields name (t : Stats.tail option) =
    let pct, v = match t with Some t -> (t.Stats.t_pct, t.Stats.t_value) | None -> (0.0, 0.0) in
    [ (name ^ ".tail", F v); (name ^ ".tail_pct", F pct) ]
  in
  let sum_case_ms = List.fold_left ( +. ) 0.0 acc.case_ms in
  let metrics =
    [
      ("lm.train_s", F s.s_lm);
      ("specdb.build_s", F s.s_specdb);
      ("setup.inproc_s", F s.s_total);
      ("generator.ms_per_program", F (per (ms_of_ns (tot "generator")) acc.programs));
      ("datagen.ms_per_program", F (per (ms_of_ns (tot "datagen")) acc.mutated));
      ("datagen.mutants_per_program", F (per (Float.of_int acc.mutants) acc.mutated));
      ("screen.ms_per_case", F (per (ms_of_ns (tot "screen")) acc.screened));
      ("screen.kept_ratio", F (per (Float.of_int acc.kept) acc.screened));
      ("jsparse.ms_per_case", F (per (ms_of_ns (tot "jsparse")) acc.cases));
      ("engines.executions_per_case", F (per (Float.of_int acc.executions) acc.cases));
      ("engines.exec_per_testbed", F (per (Float.of_int acc.executions) acc.tested));
      ("jsinterp.ref_ms.p50", F (if acc.ref_ms = [] then 0.0 else Stats.median acc.ref_ms));
    ]
    @ tail_fields "jsinterp.ref_ms" ref_tail
    @ [
        ("jsinterp.ns_per_fuel", F (per acc.ref_ns acc.ref_fuel));
        ("difftest.case_ms.p50", F (if acc.case_ms = [] then 0.0 else Stats.median acc.case_ms));
      ]
    @ tail_fields "difftest.case_ms" case_tail
    @ [
        ("difftest.case_ms.max", F (List.fold_left Float.max 0.0 acc.case_ms));
        ("difftest.case_ms.n", I (List.length acc.case_ms));
        ("difftest.vote_ms_per_case", F (per (ms_of_ns (tot "difftest.vote")) acc.cases));
        ("difftest.timeout_cases", I acc.timeouts);
        ( "difftest.timeout_wall_pct",
          F (if sum_case_ms = 0.0 then 0.0 else 100.0 *. acc.timeout_ms /. sum_case_ms) );
        ("reducer.discoveries", I acc.reduced);
        ("reducer.ms_per_discovery", F (per (ms_of_ns (tot "reducer")) acc.reduced));
        ("reducer.probes_per_discovery", F (per (Float.of_int acc.probes) acc.reduced));
        ("reducer.accept_ratio", F (per (Float.of_int acc.accepts) acc.probes));
        ("campaign.untraced_ms", F (untraced_s *. 1e3));
        ("campaign.residual_ms", F residual_ms);
        ("campaign.alloc_mb_per_case", F (per (!alloc /. 1048576.0) cases_run));
        ("campaign.major_gcs", I !major_gcs);
        ( "campaign.profile_gap_pct",
          F (if prof_sum = 0 then 0.0
             else 100.0 *. Float.of_int (abs (span_sum - prof_sum)) /. Float.of_int prof_sum) );
        ("coordinator.respawns", I respawns);
        ("coordinator.kills", I kills);
        ("coordinator.hangs", I hangs);
        ("ipc.kb_per_case", F (per (Float.of_int acc.ipc_bytes /. 1024.0) acc.cases));
        ("trace.replay_ms", F (replay_s *. 1e3));
        (* the traced run's cost beyond the spans it measures: the replay
           loop and the span bookkeeping *)
        ("trace.overhead_ms", F (ms_of_ns (root_ns - layer_ns - probe_ns)));
        (* traced wall minus untraced wall: the overhead above plus the
           probes, less the attribution and fold the replay leaves out *)
        ("trace.traced_minus_untraced_ms", F ((replay_s -. untraced_s) *. 1e3));
        ("trace.spans", I (List.length sps));
      ]
    @ List.map
        (fun n ->
          ("self_ms." ^ n,
           F (ms_of_ns (Option.value (List.assoc_opt n self) ~default:0))))
        layer_spans
  in
  emit
    (O
       [
         ("metrics", O metrics);
         ("faithful", B (acc.unfaithful = []));
         ("unfaithful", L (List.map (fun m -> S m) (List.rev acc.unfaithful)));
         ("digest_mismatch", L (List.map (fun l -> S l) (List.rev !digest_mismatch)));
         ("cases", I cases_run);
         ("failed", I !lost_cases);
       ])

(* ---------- command line ---------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> invalid_arg ("unexpected argument " ^ x)
  in
  match args with
  | [] ->
      prerr_endline
        "usage: bench.exe setup|pass|oracle|expect-cli|seeds|trace \
         [--opt v ...]";
      exit 2
  | cmd :: rest ->
      let o = opts [] rest in
      let get k =
        match List.assoc_opt k o with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "%s needs --%s" cmd k)
      in
      let workload () =
        let w = get "workload" in
        check_workload w;
        w
      in
      let seeds w = parse_seeds w (get "seeds") in
      (match cmd with
      | "setup" ->
          let w = workload () in
          cmd_setup w (seeds w)
      | "pass" ->
          let w = workload () in
          cmd_pass w (seeds w)
      | "oracle" ->
          let w = workload () in
          cmd_oracle w (seeds w) (int_of_string (get "sample-seed"))
      | "expect-cli" -> cmd_expect_cli (seeds "cli-cold")
      | "seeds" ->
          let w = workload () in
          emit (L (List.map (fun s -> I s) (seeds w)))
      | "trace" ->
          let w = workload () in
          cmd_trace w (seeds w) (get "spans-out")
      | c -> invalid_arg ("unknown subcommand " ^ c))
