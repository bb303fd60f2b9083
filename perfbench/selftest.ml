(* Self-tests for the benchmark's own arithmetic: the tail-percentile
   helper, span self time, and the report digest. *)

open Perfbench

let floats = Alcotest.(float 1e-9)

let tail_cases () =
  let up_to n = List.init n (fun i -> Float.of_int (i + 1)) in
  let check name xs pct value =
    match Stats.tail xs with
    | None -> Alcotest.fail (name ^ ": no tail")
    | Some t ->
        Alcotest.check floats (name ^ " pct") pct t.Stats.t_pct;
        Alcotest.check floats (name ^ " value") value t.Stats.t_value;
        Alcotest.(check int) (name ^ " n") (List.length xs) t.Stats.t_n
  in
  (* 1000 samples: p99 is rank 990 with exactly ten beyond it; p99.9
     would have one *)
  check "n=1000" (up_to 1000) 99.0 990.0;
  (* 999 samples: p99 is rank 990 with nine beyond, so p90 *)
  check "n=999" (up_to 999) 90.0 900.0;
  (* unsorted input *)
  check "reversed" (List.rev (up_to 1000)) 99.0 990.0;
  check "n=20" (up_to 20) 50.0 10.0;
  Alcotest.(check bool) "n=19 has no tail" true (Stats.tail (up_to 19) = None);
  Alcotest.(check bool) "empty" true (Stats.tail [] = None)

let median_cases () =
  Alcotest.check floats "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  (* nearest rank: the lower middle of an even count *)
  Alcotest.check floats "even" 2.0 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check floats "p100" 4.0
    (Stats.percentile (Stats.sorted [ 4.0; 1.0; 3.0; 2.0 ]) 100.0)

let span ~id ~parent ~name a b =
  { Spans.id; name; parent; case_id = -1; start_ns = a; stop_ns = b }

let self_time_cases () =
  let sps =
    [
      span ~id:0 ~parent:(-1) ~name:"root" 0 100;
      (* overlapping children count once; a child running past its
         parent's end is clipped to it *)
      span ~id:1 ~parent:0 ~name:"a" 10 30;
      span ~id:2 ~parent:0 ~name:"a" 20 50;
      span ~id:3 ~parent:0 ~name:"b" 90 120;
      (* a grandchild reduces its parent's self time, not the root's *)
      span ~id:4 ~parent:2 ~name:"c" 25 35;
    ]
  in
  let self = Spans.self_times sps in
  Alcotest.(check (list (pair int int)))
    "per span"
    [ (0, 50); (1, 20); (2, 20); (3, 30); (4, 10) ]
    self;
  Alcotest.(check (list (pair string int)))
    "per name"
    [ ("a", 40); ("b", 30); ("c", 10); ("root", 50) ]
    (Spans.self_by_name sps);
  Alcotest.(check int) "disjoint" 25
    (Spans.covered ~lo:0 ~hi:100 [ (0, 10); (50, 60); (95, 105) ])

let recorder_cases () =
  let t = Spans.create () in
  Spans.with_span t "campaign" (fun () ->
      Spans.with_span t ~case_id:7 "case" (fun () ->
          Spans.with_span t "sweep" (fun () -> ()));
      Spans.with_span t "screen" (fun () -> ()));
  match Spans.spans t with
  | [ root; case; sweep; screen ] ->
      Alcotest.(check int) "root parent" (-1) root.Spans.parent;
      Alcotest.(check int) "case parent" root.Spans.id case.Spans.parent;
      Alcotest.(check int) "sweep parent" case.Spans.id sweep.Spans.parent;
      Alcotest.(check int) "sweep inherits the case" 7 sweep.Spans.case_id;
      Alcotest.(check int) "screen has no case" (-1) screen.Spans.case_id;
      List.iter
        (fun sp ->
          Alcotest.(check bool) "closed" true (sp.Spans.stop_ns >= sp.Spans.start_ns))
        [ root; case; sweep; screen ]
  | l -> Alcotest.failf "expected 4 spans, got %d" (List.length l)

let digest_cases () =
  let testbeds =
    List.filteri (fun i _ -> i < 6) Engines.Engine.all_testbeds
  in
  let run () =
    Comfort.Campaign.run ~testbeds ~budget:12 ~reduce:true
      (Comfort.Campaign.comfort_fuzzer ~seed:3 ())
  in
  let a = run () and b = run () in
  Alcotest.(check string) "same campaign, same digest"
    (Report_digest.of_result a) (Report_digest.of_result b);
  Alcotest.(check bool) "a changed count changes it" false
    (Report_digest.of_result a
    = Report_digest.of_result
        { a with Comfort.Campaign.cp_filtered_repeats = a.Comfort.Campaign.cp_filtered_repeats + 1 });
  Alcotest.(check string) "combine ignores run order"
    (Report_digest.combine [ ("x", "1"); ("y", "2") ])
    (Report_digest.combine [ ("y", "2"); ("x", "1") ])

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick tail_cases;
          Alcotest.test_case "median" `Quick median_cases;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick self_time_cases;
          Alcotest.test_case "recorder" `Quick recorder_cases;
        ] );
      ("digest", [ Alcotest.test_case "stability" `Quick digest_cases ]);
    ]
