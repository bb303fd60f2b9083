(* A digest of everything a campaign report claims: the discoveries in
   order with the index of the case that exposed them, the timeline, the
   filtered repeats, the screen counts and any loss or abort. Process-
   local values (test-case ids, statistics-only counters) are left out,
   so the digest is a pure function of (workload, seed list, code). *)

open Comfort

let canonical (r : Campaign.result) : string =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "fuzzer %s" r.Campaign.cp_fuzzer;
  line "cases %d" r.Campaign.cp_cases_run;
  List.iter
    (fun (d : Campaign.discovery) ->
      line "disc %d %s %s %s %s %s %s %s %s" d.Campaign.disc_at
        (Engines.Registry.engine_name d.Campaign.disc_engine)
        (Jsinterp.Quirk.to_string d.Campaign.disc_quirk)
        (Difftest.deviation_kind_to_string d.Campaign.disc_kind)
        (String.escaped d.Campaign.disc_behavior)
        d.Campaign.disc_version
        (Engines.Engine.mode_to_string d.Campaign.disc_mode)
        (Digest.to_hex (Digest.string d.Campaign.disc_case.Testcase.tc_source))
        (match d.Campaign.disc_reduced with
        | Some s -> Digest.to_hex (Digest.string s)
        | None -> "-"))
    r.Campaign.cp_discoveries;
  List.iter (fun (at, n) -> line "time %d %d" at n) r.Campaign.cp_timeline;
  line "repeats %d" r.Campaign.cp_filtered_repeats;
  line "unattributed %d" r.Campaign.cp_unattributed;
  line "screened %d repaired %d" r.Campaign.cp_screened_out
    r.Campaign.cp_repaired;
  List.iter
    (fun (why, n) -> line "reason %s %d" (String.escaped why) n)
    r.Campaign.cp_screen_reasons;
  line "skipped %d" r.Campaign.cp_skipped_cases;
  line "aborted %s" (Option.value r.Campaign.cp_aborted ~default:"-");
  Buffer.contents b

let of_result (r : Campaign.result) : string =
  Digest.to_hex (Digest.string (canonical r))

(* Combine labelled digests in label order, so the run order of the
   campaigns does not change the result. *)
let combine (labelled : (string * string) list) : string =
  List.sort compare labelled
  |> List.map (fun (l, d) -> l ^ "=" ^ d)
  |> String.concat ";" |> Digest.string |> Digest.to_hex
