(* The structured specification database (the JSON store of Figure 3/4).

   Lookup happens by the last path component of the API name, because the
   data generator sees call sites like [str.substr(a, b)] where the receiver
   type is unknown statically — matching "substr" against
   "String.prototype.substr" is exactly what the paper's tool does. *)

open Spec_ast

type t = {
  entries : entry list;
  by_key : (string, entry list) Hashtbl.t;
}

let last_component (name : string) : string =
  match List.rev (String.split_on_char '.' name) with
  | last :: _ -> last
  | [] -> name

let build (entries : entry list) : t =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = last_component e.e_name in
      let existing = Option.value (Hashtbl.find_opt by_key key) ~default:[] in
      Hashtbl.replace by_key key (existing @ [ e ]))
    entries;
  { entries; by_key }

let lookup (db : t) (callee : string) : entry list =
  Option.value (Hashtbl.find_opt db.by_key callee) ~default:[]

(* Entries that actually carry exploitable data: at least one parameter
   with boundary values. *)
let usable_entries (db : t) : entry list =
  List.filter (fun e -> e.e_params <> [] && e.e_parsed_rules > 0) db.entries

(* Aggregate rule coverage over the whole document (§3.1: "around 82%"). *)
let rule_coverage (db : t) : float =
  let total, parsed =
    List.fold_left
      (fun (t, p) e -> (t + e.e_rule_count, p + e.e_parsed_rules))
      (0, 0) db.entries
  in
  if total = 0 then 1.0 else Float.of_int parsed /. Float.of_int total

let stats (db : t) : string =
  Printf.sprintf "%d sections, %d with extractable rules, rule coverage %.1f%%"
    (List.length db.entries)
    (List.length (usable_entries db))
    (100.0 *. rule_coverage db)
