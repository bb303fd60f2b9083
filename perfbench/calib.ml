(* Host-speed sampling.

   Benchmark hosts may share their cores with other machines: on a
   2-vCPU KVM guest (Xeon, Sapphire Rapids) a fixed loop ran 1.6x slower
   for minutes at a time, and 1.5x slower for a second now and then,
   which swamps any change a commit makes. So while run.py times the
   program, this process runs beside it on the same CPU: every [gap]
   seconds it wakes, does one small fixed unit of CPU work that belongs
   to the benchmark and not to the program under test, and records the
   processor time the unit took. The unit is allocation, hashing and
   branches over a cache-sized working set, the kind of work the
   interpreter does. run.py scales each timed part of the program by the
   mean of the samples taken during it, so that a burst of slowness is
   divided out in proportion to how long it lasted. It is built with
   fixed compiler flags (perfbench/dune) and sets its own GC parameters,
   so that a change to the program's build or GC settings is not divided
   out with the host's speed.

     calib.exe GAP   samples every GAP seconds until SIGTERM, then prints
                     {"ref_s": <seconds one unit takes at the reference
                      speed>, "samples": [[<wall clock at the unit's
                      start>, <processor seconds it took>], ...]} *)

let ref_s = 0.001

let work () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  let l = List.init 4_000 (fun i -> ((i * 7919) land 2047, string_of_int i)) in
  List.iter
    (fun (k, s) ->
      let prev = Option.value (Hashtbl.find_opt h k) ~default:0 in
      Hashtbl.replace h k (prev + String.length s);
      if k land 1 = 0 then acc := !acc + prev else acc := !acc - 1)
    l;
  !acc

(* Processor time, not wall: a sample the measured program preempts is
   not charged for the program's time, while time the host withholds
   from this CPU is charged (a KVM guest counts it as run time). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let () =
  (* OCaml 5's defaults, whatever the program's become *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  let gap = float_of_string Sys.argv.(1) in
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  let samples = ref [] in
  while not !stop do
    (try Unix.sleepf gap with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if not !stop then begin
      let t0 = Unix.gettimeofday () and c0 = cpu () in
      ignore (Sys.opaque_identity (work ()));
      samples := (t0, cpu () -. c0) :: !samples
    end
  done;
  Printf.printf "{\"ref_s\": %.12g, \"samples\": [%s]}\n" ref_s
    (String.concat ", "
       (List.rev_map (fun (t, c) -> Printf.sprintf "[%.6f, %.9f]" t c) !samples))
