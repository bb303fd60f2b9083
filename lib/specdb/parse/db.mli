(** The structured specification database (the JSON store of Figure 3/4).

    Lookup happens by the last path component of the API name, because the
    data generator sees call sites like [str.substr(a, b)] whose receiver
    type is unknown statically — matching ["substr"] against
    ["String.prototype.substr"] is exactly what the paper's tool does. *)

type t = {
  entries : Spec_ast.entry list;
  by_key : (string, Spec_ast.entry list) Hashtbl.t;
}

val last_component : string -> string

val build : Spec_ast.entry list -> t

val lookup : t -> string -> Spec_ast.entry list

(** Entries carrying exploitable boundary data. *)
val usable_entries : t -> Spec_ast.entry list

(** Aggregate rule coverage over the whole document (paper §3.1: ~82%). *)
val rule_coverage : t -> float

val stats : t -> string
