(* In-memory span recorder for the traced run.

   Spans are opened and closed around calls into a layer's public
   functions, from the benchmark's side only. Each records its name,
   start, end, the span that was open when it started (its parent) and
   the case it belongs to. Nothing is written while the run is measured:
   [write] dumps the buffer once the run has ended. *)

type span = {
  id : int;
  name : string;
  parent : int;     (** id of the enclosing span, -1 for a root *)
  case_id : int;    (** inherited from the parent when not given; -1 = none *)
  start_ns : int;
  mutable stop_ns : int;
}

type t = {
  mutable buf : span array;
  mutable len : int;
  mutable open_ : span list;  (* innermost first *)
}

let create () = { buf = [||]; len = 0; open_ = [] }

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let push t sp =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (max 1024 (2 * t.len)) sp in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- sp;
  t.len <- t.len + 1

let with_span t ?case_id name f =
  let parent, inherited =
    match t.open_ with p :: _ -> (p.id, p.case_id) | [] -> (-1, -1)
  in
  let case_id = Option.value case_id ~default:inherited in
  let sp =
    { id = t.len; name; parent; case_id; start_ns = now_ns (); stop_ns = -1 }
  in
  push t sp;
  t.open_ <- sp :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      sp.stop_ns <- now_ns ();
      t.open_ <- List.tl t.open_)
    f

let spans t = Array.to_list (Array.sub t.buf 0 t.len)

let duration sp = sp.stop_ns - sp.start_ns

(* Length of the union of [ivs], each clipped to [lo, hi]. *)
let covered ~lo ~hi (ivs : (int * int) list) : int =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max lo a and b = min hi b in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

(* A span's self time: its duration minus the part of its interval that
   its direct children cover. *)
let self_times (sps : span list) : (int * int) list =
  let children = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace children sp.parent
          ((sp.start_ns, sp.stop_ns)
          :: Option.value (Hashtbl.find_opt children sp.parent) ~default:[]))
    sps;
  List.map
    (fun sp ->
      let kids = Option.value (Hashtbl.find_opt children sp.id) ~default:[] in
      (sp.id, duration sp - covered ~lo:sp.start_ns ~hi:sp.stop_ns kids))
    sps

(* Self time summed per span name, sorted by name. *)
let self_by_name (sps : span list) : (string * int) list =
  let self = Hashtbl.create 256 in
  List.iter (fun (id, ns) -> Hashtbl.replace self id ns) (self_times sps);
  let acc = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      Hashtbl.replace acc sp.name
        (Hashtbl.find self sp.id
        + Option.value (Hashtbl.find_opt acc sp.name) ~default:0))
    sps;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* Total duration per span name, sorted by name. *)
let total_by_name (sps : span list) : (string * int) list =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      Hashtbl.replace acc sp.name
        (duration sp + Option.value (Hashtbl.find_opt acc sp.name) ~default:0))
    sps;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* One tab-separated line per span: id, parent, case, name, start, end. *)
let write path (sps : span list) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\tcase\tname\tstart_ns\tend_ns\n";
      List.iter
        (fun sp ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" sp.id sp.parent
            sp.case_id sp.name sp.start_ns sp.stop_ns)
        sps)
