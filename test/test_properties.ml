(* Cross-cutting QCheck properties over the whole pipeline. *)


(* deterministic program source generator: LM samples keyed by seed *)
let gen_source =
  QCheck2.Gen.(
    map
      (fun seed ->
        let g = Comfort.Generator.create ~seed:(abs seed + 1) () in
        Comfort.Generator.sample_program g)
      int)

let interpreter_deterministic =
  QCheck2.Test.make ~count:60 ~name:"interpreter is deterministic" gen_source
    (fun src ->
      let r1 = Jsinterp.Run.run ~fuel:200_000 src in
      let r2 = Jsinterp.Run.run ~fuel:200_000 src in
      Comfort.Difftest.signature_of_result r1
      = Comfort.Difftest.signature_of_result r2
      && r1.Jsinterp.Run.r_fuel_used = r2.Jsinterp.Run.r_fuel_used)

let reference_never_fires =
  QCheck2.Test.make ~count:60 ~name:"reference engine fires no quirks"
    gen_source (fun src ->
      let r = Jsinterp.Run.run ~fuel:200_000 src in
      Jsinterp.Quirk.Set.is_empty r.Jsinterp.Run.r_fired)

let quirkless_testbeds_agree =
  (* ten engines that all carry zero bugs can never deviate from each other *)
  let clean_testbeds =
    List.map
      (fun e ->
        let cfg = Engines.Registry.latest e in
        {
          Engines.Engine.tb_config =
            { cfg with Engines.Registry.cfg_quirks = Jsinterp.Quirk.Set.empty };
          tb_mode = Engines.Engine.Normal;
        })
      Engines.Registry.all_engines
  in
  QCheck2.Test.make ~count:40 ~name:"quirk-free engines never deviate"
    gen_source (fun src ->
      let tc = Comfort.Testcase.make src in
      let report = Comfort.Difftest.run_case clean_testbeds tc in
      report.Comfort.Difftest.cr_deviations = [])

let datagen_mutants_parse =
  QCheck2.Test.make ~count:40 ~name:"datagen mutants always parse" gen_source
    (fun src ->
      let dg = Comfort.Datagen.create ~seed:5 () in
      List.for_all
        (fun (m : Comfort.Datagen.mutant) ->
          Jsparse.Parser.is_valid m.Comfort.Datagen.m_source)
        (Comfort.Datagen.mutants_of_program dg src))

let fuel_monotone =
  (* more fuel can only move a timeout towards completion, never the
     reverse; the final non-timeout signature is stable *)
  QCheck2.Test.make ~count:40 ~name:"fuel is monotone" gen_source (fun src ->
      let r_small = Jsinterp.Run.run ~fuel:20_000 src in
      let r_big = Jsinterp.Run.run ~fuel:2_000_000 src in
      match (r_small.Jsinterp.Run.r_status, r_big.Jsinterp.Run.r_status) with
      | Jsinterp.Run.Sts_timeout, _ -> true
      | s1, s2 -> s1 = s2)

let reducer_output_still_valid =
  QCheck2.Test.make ~count:25 ~name:"reducer preserves syntactic validity"
    gen_source (fun src ->
      if not (Jsparse.Parser.is_valid src) then true
      else
        (* reduce under a trivial predicate that accepts smaller parseable
           programs printing anything *)
        let reduced =
          Comfort.Reducer.reduce
            ~still_triggers:(fun s -> Jsparse.Parser.is_valid s)
            src
        in
        Jsparse.Parser.is_valid reduced
        && String.length reduced <= String.length src)

let printer_preserves_behavior =
  (* parse -> print -> parse -> run gives the same observable result *)
  QCheck2.Test.make ~count:60 ~name:"pretty-printing preserves behaviour"
    gen_source (fun src ->
      match Jsparse.Parser.parse_program src with
      | exception Jsparse.Parser.Syntax_error _ -> true
      | p ->
          let src2 = Jsast.Printer.program_to_string p in
          let r1 = Jsinterp.Run.run ~fuel:200_000 src in
          let r2 = Jsinterp.Run.run ~fuel:200_000 src2 in
          Comfort.Difftest.signature_of_result r1
          = Comfort.Difftest.signature_of_result r2)

(* --- Quirk.Bits ↔ Quirk.Set equivalence ---
   The execution-sharing layer does its per-testbed set algebra on the
   packed Bits form; these properties pin it to the balanced-tree Set
   semantics over the whole catalogue. *)

let gen_quirks =
  QCheck2.Gen.(
    map Jsinterp.Quirk.Set.of_list
      (list_size (0 -- 72) (oneofl Jsinterp.Quirk.all)))

let bits_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"Bits.of_set/to_set roundtrip" gen_quirks
    (fun s ->
      Jsinterp.Quirk.Set.equal
        (Jsinterp.Quirk.Bits.to_set (Jsinterp.Quirk.Bits.of_set s))
        s)

let bits_mem_agrees =
  QCheck2.Test.make ~count:200 ~name:"Bits.mem agrees with Set.mem" gen_quirks
    (fun s ->
      let b = Jsinterp.Quirk.Bits.of_set s in
      List.for_all
        (fun q -> Jsinterp.Quirk.Bits.mem q b = Jsinterp.Quirk.Set.mem q s)
        Jsinterp.Quirk.all)

let bits_algebra_agrees =
  QCheck2.Test.make ~count:200 ~name:"Bits algebra commutes with Set algebra"
    QCheck2.Gen.(pair gen_quirks gen_quirks)
    (fun (s1, s2) ->
      let module Q = Jsinterp.Quirk in
      let b1 = Q.Bits.of_set s1 and b2 = Q.Bits.of_set s2 in
      Q.Set.equal (Q.Bits.to_set (Q.Bits.union b1 b2)) (Q.Set.union s1 s2)
      && Q.Set.equal (Q.Bits.to_set (Q.Bits.inter b1 b2)) (Q.Set.inter s1 s2)
      && Q.Set.equal (Q.Bits.to_set (Q.Bits.diff b1 b2)) (Q.Set.diff s1 s2)
      && Q.Bits.subset b1 b2 = Q.Set.subset s1 s2
      && Q.Bits.equal b1 b2 = Q.Set.equal s1 s2
      && Q.Bits.is_empty b1 = Q.Set.is_empty s1
      && Q.Bits.cardinal b1 = Q.Set.cardinal s1)

let bits_point_ops_agree =
  QCheck2.Test.make ~count:200 ~name:"Bits.add/remove/singleton agree with Set"
    QCheck2.Gen.(pair gen_quirks (oneofl Jsinterp.Quirk.all))
    (fun (s, q) ->
      let module Q = Jsinterp.Quirk in
      let b = Q.Bits.of_set s in
      Q.Set.equal (Q.Bits.to_set (Q.Bits.add q b)) (Q.Set.add q s)
      && Q.Set.equal (Q.Bits.to_set (Q.Bits.remove q b)) (Q.Set.remove q s)
      && Q.Set.equal (Q.Bits.to_set (Q.Bits.singleton q)) (Q.Set.singleton q))

(* --- exact string-conversion shortcuts --- *)

let number_to_string_integral =
  (* integral floats in ±2^53 print through [string_of_int]; the digits
     must be the ones "%.0f" prints *)
  let bound = 1 lsl 53 in
  QCheck2.Test.make ~count:1000
    ~name:"number_to_string is %.0f on integral floats within 2^53"
    QCheck2.Gen.(
      oneof
        [
          int_range (-1000) 1000;
          int_range (-bound + 1) (bound - 1);
          map (fun k -> (1 lsl k) - 1) (int_range 1 53);
          map (fun k -> 1 - (1 lsl k)) (int_range 1 53);
          oneofl [ bound - 1; -bound + 1; 999_999_999_999_999; 1_000_000_000_000_000 ];
        ])
    (fun n ->
      let f = Float.of_int n in
      Jsinterp.Ops.number_to_string f = Printf.sprintf "%.0f" f)

let array_index_of_key_unchanged =
  (* the first-character shortcut may only skip keys the round trip
     rejects anyway *)
  let reference k =
    match int_of_string_opt k with
    | Some i when i >= 0 && string_of_int i = k -> Some i
    | _ -> None
  in
  let edges =
    [
      ""; "-0"; "01"; "+1"; "0x1"; "1_0"; "0"; "-1"; " 1"; "1 "; "1e3"; "0b1";
      "0o7"; "4294967295"; string_of_int max_int; string_of_int min_int;
      "4611686018427387904"; "99999999999999999999"; "length"; "__obs";
    ]
  in
  QCheck2.Test.make ~count:1000 ~name:"array_index_of_key matches the round trip"
    QCheck2.Gen.(
      oneof
        [
          oneofl edges;
          string_size ~gen:(oneofl [ '0'; '1'; '9'; '-'; '+'; 'x'; '_'; 'e'; ' ' ])
            (int_range 0 6);
          map string_of_int int;
          string_printable;
        ])
    (fun k -> Jsinterp.Value.array_index_of_key k = reference k)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      interpreter_deterministic;
      reference_never_fires;
      quirkless_testbeds_agree;
      datagen_mutants_parse;
      fuel_monotone;
      reducer_output_still_valid;
      printer_preserves_behavior;
      bits_roundtrip;
      bits_mem_agrees;
      bits_algebra_agrees;
      bits_point_ops_agree;
      number_to_string_integral;
      array_index_of_key_unchanged;
    ]
