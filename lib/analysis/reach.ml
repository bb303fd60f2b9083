(* Static quirk-reachability: a conservative over-approximation of the
   checkpoint ids a program can consult at run time.

   Every conformance-relevant decision in the interpreter funnels through
   [Value.quirk_on] (directly or via [fire]); the consultation sites fall
   into three syntactic families, and the abstract domain here is simply a
   set of quirk ids closed under them:

   - operator sites: a fixed map from AST operators to the codegen /
     optimizer checkpoints their evaluation consults (e.g. every [%]
     consults the mod-sign checkpoint, every [>>>] the unsigned-shift one);
   - builtin API sites: a map from property / global names to the
     checkpoints the named builtin consults ([substr], [defineProperty],
     [test], ...). The map is mention-based — any static occurrence of the
     name, as a field, a string index or a free identifier, contributes —
     because a mentioned method value can flow anywhere and be invoked
     implicitly (e.g. stored as a [toString] and triggered by coercion);
   - dynamic constructs: computed member access with a non-literal key can
     reach any builtin method on any prototype, so it joins with the union
     of every name-mapped checkpoint ([name_top]); if the global object is
     also reachable ([this] / [globalThis]) or [eval] is mentioned, the
     result is the top element (all checkpoints).

   Scoping reuses {!Scope}: a global like [parseInt] or [eval] only
   contributes when some occurrence of the name resolves free — a program
   that rebinds the name everywhere cannot reach the builtin through it
   (members and string indices are still counted unconditionally).

   Soundness is what the test suite's reach audit asserts: for every
   execution, the static set computed here is a superset of the run's
   touched set. The set is a diagnostic ([comfort analyze --quirks]); no
   execution consults it, so imprecision only blurs that view. *)

open Jsast.Ast
module Q = Quirkdef

let top : Q.Set.t = Q.Set.of_list Q.all
let is_top (s : Q.Set.t) = Q.Set.cardinal s = List.length Q.all

(* --- the builtin-name map --- *)

(* The three regex-semantics checkpoints are consulted together at match
   time, from every matching entry point (test/exec/split/replace/match/
   search). *)
let regex3 =
  [
    Q.Q_regex_dot_matches_newline;
    Q.Q_regex_ignorecase_broken;
    Q.Q_regex_class_negation_broken;
  ]

let replace_quirks =
  [
    Q.Q_replace_dollar_group_literal;
    Q.Q_replace_fn_missing_offset;
    Q.Q_replace_undefined_search_noop;
    Q.Q_replace_empty_pattern_skips;
  ]
  @ regex3

(* [test]/[exec] update [lastIndex] through the guarded setter on g-flagged
   regexes in addition to running the matcher. *)
let regex_use = Q.Q_regexp_lastindex_nonwritable_silent :: regex3

let typed_ctor_quirks =
  [ Q.Q_uint32array_fractional_length_typeerror; Q.Q_typedarray_oob_write_crash ]

let dataview_quirks = [ Q.Q_dataview_no_bounds_check ]

(* What a name mention can reach. [`Top] is [eval]: evaluated code is
   arbitrary, so every checkpoint is reachable through it. *)
type entry = Quirks of Q.t list | Top

let dataview_names =
  List.concat_map
    (fun op ->
      List.map
        (fun ty -> op ^ ty)
        [
          "Int8"; "Uint8"; "Int16"; "Uint16"; "Int32"; "Uint32"; "Float32";
          "Float64";
        ])
    [ "get"; "set" ]

let name_table : (string * entry) list =
  [
    ("eval", Top);
    (* String.prototype *)
    ("substr", Quirks [ Q.Q_substr_undefined_length_empty ]);
    ("charAt", Quirks [ Q.Q_charat_negative_wraps ]);
    ( "indexOf",
      Quirks [ Q.Q_string_indexof_fromindex_ignored; Q.Q_array_indexof_nan_found ]
    );
    ("lastIndexOf", Quirks [ Q.Q_lastindexof_nan_zero ]);
    ("startsWith", Quirks [ Q.Q_startswith_position_ignored ]);
    ("slice", Quirks [ Q.Q_slice_negative_start_zero ]);
    ("trim", Quirks [ Q.Q_trim_missing_vt ]);
    ("repeat", Quirks [ Q.Q_repeat_negative_empty ]);
    ("padStart", Quirks [ Q.Q_padstart_overlong_truncates ]);
    ("split", Quirks (Q.Q_split_regexp_anchor_bug :: regex3));
    ("replace", Quirks replace_quirks);
    ("match", Quirks regex3);
    ("search", Quirks regex3);
    ("normalize", Quirks [ Q.Q_normalize_empty_crash ]);
    ("big", Quirks [ Q.Q_string_big_null_no_typeerror ]);
    (* RegExp.prototype *)
    ("test", Quirks regex_use);
    ("exec", Quirks regex_use);
    ("compile", Quirks [ Q.Q_regexp_lastindex_nonwritable_silent ]);
    (* Array.prototype; stores through [push]/[fill] reach the element
       store and its relocation-cost checkpoint *)
    ("sort", Quirks [ Q.Q_array_sort_numeric_default ]);
    ("splice", Quirks [ Q.Q_splice_negative_delcount_deletes ]);
    ("includes", Quirks [ Q.Q_array_includes_strict_nan ]);
    ( "unshift",
      Quirks [ Q.Q_unshift_returns_undefined; Q.Q_join_prints_null_undefined ] );
    ("join", Quirks [ Q.Q_join_prints_null_undefined ]);
    ("reduce", Quirks [ Q.Q_reduce_empty_returns_undefined ]);
    ("flat", Quirks [ Q.Q_flat_ignores_depth ]);
    ( "fill",
      Quirks
        [
          Q.Q_array_fill_skips_last;
          Q.Q_typedarray_fill_no_coerce;
          Q.Q_array_reverse_fill_quadratic;
          Q.Q_uint8clamped_wraps;
        ] );
    ( "push",
      Quirks [ Q.Q_array_reverse_fill_quadratic; Q.Q_uint8clamped_wraps ] );
    (* Number *)
    ( "toString",
      Quirks [ Q.Q_tostring_radix_no_rangeerror; Q.Q_join_prints_null_undefined ]
    );
    ("toFixed", Quirks [ Q.Q_tofixed_no_rangeerror ]);
    ("toPrecision", Quirks [ Q.Q_toprecision_zero_accepted ]);
    ("parseInt", Quirks [ Q.Q_parseint_no_hex_prefix ]);
    ("parseFloat", Quirks [ Q.Q_parsefloat_trailing_nan ]);
    ("isInteger", Quirks [ Q.Q_number_isinteger_coerces ]);
    (* Object *)
    ( "freeze",
      Quirks
        [ Q.Q_freeze_array_elements_writable; Q.Q_seal_string_object_crash ] );
    ("seal", Quirks [ Q.Q_seal_string_object_crash ]);
    ("keys", Quirks [ Q.Q_keys_includes_nonenumerable ]);
    ("getOwnPropertyNames", Quirks [ Q.Q_getownpropertynames_sorted ]);
    ( "defineProperty",
      Quirks
        [
          Q.Q_defineproperty_defaults_writable;
          Q.Q_defineproperty_array_length_no_typeerror;
          Q.Q_array_reverse_fill_quadratic;
          Q.Q_uint8clamped_wraps;
        ] );
    ( "assign",
      Quirks
        [
          Q.Q_assign_skips_numeric_keys;
          Q.Q_array_reverse_fill_quadratic;
          Q.Q_uint8clamped_wraps;
        ] );
    ("hasOwnProperty", Quirks [ Q.Q_hasownproperty_walks_proto ]);
    (* JSON *)
    ( "stringify",
      Quirks
        [ Q.Q_json_stringify_undefined_string; Q.Q_json_stringify_nan_literal ]
    );
    ("parse", Quirks [ Q.Q_json_parse_trailing_comma ]);
    (* TypedArray / DataView *)
    ("set", Quirks [ Q.Q_typedarray_set_string_typeerror ]);
    ("RegExp", Quirks regex_use);
    ("Uint8Array", Quirks typed_ctor_quirks);
    ("Int8Array", Quirks typed_ctor_quirks);
    ("Uint16Array", Quirks typed_ctor_quirks);
    ("Int16Array", Quirks typed_ctor_quirks);
    ("Uint32Array", Quirks typed_ctor_quirks);
    ("Int32Array", Quirks typed_ctor_quirks);
    ("Float32Array", Quirks typed_ctor_quirks);
    ("Float64Array", Quirks typed_ctor_quirks);
    ("Uint8ClampedArray", Quirks (Q.Q_uint8clamped_wraps :: typed_ctor_quirks));
    ("DataView", Quirks dataview_quirks);
  ]
  @ List.map (fun n -> (n, Quirks dataview_quirks)) dataview_names

let lookup_name : string -> entry option =
  let tbl = Hashtbl.create 97 in
  List.iter (fun (n, e) -> Hashtbl.replace tbl n e) name_table;
  fun n -> Hashtbl.find_opt tbl n

(* Join of every name-mapped checkpoint: what a computed member access with
   a dynamic key can reach without the global object. Builtins that live
   only on the global object ([eval], [parseInt], the constructors) are
   still included — conservative, and they are reachable through prototype
   [constructor] chains anyway. Still a strict subset of [top]: operator,
   optimizer, strict-mode and parse-stage checkpoints need their own
   syntax. *)
let name_top : Q.Set.t =
  List.fold_left
    (fun acc (_, e) ->
      match e with Quirks qs -> Q.Set.union acc (Q.Set.of_list qs) | Top -> acc)
    Q.Set.empty name_table

(* --- operator sites --- *)

let binop_quirks : binop -> Q.t list = function
  | Add -> [ Q.Q_codegen_plus_bool_concat; Q.Q_opt_int_add_overflow_wraps ]
  | Mod -> [ Q.Q_codegen_mod_sign_wrong ]
  | Shl -> [ Q.Q_codegen_shift_count_unmasked ]
  | Ushr -> [ Q.Q_codegen_ushr_signed ]
  | Eq | Neq -> [ Q.Q_codegen_null_eq_undefined_false ]
  | Lt | Gt | Le | Ge -> [ Q.Q_codegen_string_relational_numeric ]
  | Sub | Mul | Div | Exp | StrictEq | StrictNeq | BitAnd | BitOr | BitXor
  | Shr | Instanceof | In ->
      []

(* Does evaluating this operator coerce an operand with ToPrimitive /
   ToString / ToNumber? Coercing an array (or arguments object) runs
   [Array.prototype.toString] -> [join], which consults the
   join-prints-null-undefined checkpoint per elided element. *)
let binop_coerces : binop -> bool = function
  | StrictEq | StrictNeq | Instanceof -> false
  | _ -> true

(* Element stores ([a[i] = v], [a[i] += v], [a[i]++]): the dense store
   consults the relocation-cost model, a boolean key consults the
   QuickJS append deviation, and a typed-array target coerces the value. *)
let index_store_quirks =
  [
    Q.Q_array_reverse_fill_quadratic;
    Q.Q_bool_prop_appends_to_array;
    Q.Q_uint8clamped_wraps;
  ]

(* --- the traversal --- *)

type acc = {
  mutable set : Q.Set.t;
  mutable saw_top : bool;        (* eval mentioned / global + dynamic key *)
  mutable dyn_index : bool;      (* computed member with non-literal key *)
  mutable global_obj : bool;     (* [this] or [globalThis] reachable *)
  mutable coerces : bool;        (* any ToPrimitive-capable construct *)
  mutable this_func : bool;
      (* an ordinary function that can observe its [this] is defined *)
  mutable any_loop : bool;
  mutable compound_add : bool;   (* [+=] / [++]-style string append *)
  mutable strict_body : bool;    (* some function body opts into strict *)
  mutable writes : string list;  (* identifiers targeted by an assignment *)
}

let add acc qs = acc.set <- Q.Set.union acc.set (Q.Set.of_list qs)

let mention acc n =
  match lookup_name n with
  | Some (Quirks qs) -> add acc qs
  | Some Top -> acc.saw_top <- true
  | None -> ()

let body_opts_strict (body : stmt list) =
  match body with
  | { s = Expr_stmt { e = Lit (Lstr "use strict"); _ }; _ } :: _ -> true
  | _ -> false

(* Can a call of [f] observe the [this] it is bound to? Only through a
   [this] in its body (arrows, nested at any depth, read the same binding)
   or through [eval]. Ordinary functions nested in the body count as well:
   an over-approximation, which is sound. A [false] answer lets a call
   site bind [undefined] for a missing receiver without consulting the
   strict-[this] checkpoint, and the mode cannot show in that binding. *)
exception Observes

let observes_this (f : func) : bool =
  let fe (x : expr) =
    match x.e with This | Ident "eval" -> raise Observes | _ -> ()
  in
  match List.iter (Jsast.Visit.iter_stmt ~fe ~fs:ignore) f.body with
  | () -> false
  | exception Observes -> true

let visit_func acc (f : func) =
  if (not f.is_arrow) && (not acc.this_func) && observes_this f then
    acc.this_func <- true;
  if body_opts_strict f.body then acc.strict_body <- true

let store_target acc (target : expr) =
  match target.e with
  | Ident n -> acc.writes <- n :: acc.writes
  | Member (_, Pindex { e = Lit (Lstr k); _ }) ->
      mention acc k;
      add acc index_store_quirks
  | Member (_, Pindex _) -> add acc index_store_quirks
  | Member (_, Pfield _) -> ()
  | _ -> ()

let visit_expr acc (x : expr) =
  match x.e with
  | Lit (Lregexp _) -> add acc regex_use
  | Lit _ -> ()
  | Ident _ -> ()  (* free-name contributions come from [Scope.resolve] *)
  | This -> acc.global_obj <- true
  | Member (_, Pfield n) -> mention acc n
  | Member (_, Pindex { e = Lit (Lstr k); _ }) -> mention acc k
  | Member (_, Pindex { e = Lit _; _ }) -> ()
  | Member (_, Pindex _) ->
      acc.dyn_index <- true;
      acc.coerces <- true
  | Unary (Uneg, _) ->
      add acc [ Q.Q_codegen_neg_zero_positive ];
      acc.coerces <- true
  | Unary ((Uplus | Ubnot), _) -> acc.coerces <- true
  | Unary (Udelete, { e = Member _; _ }) ->
      add acc [ Q.Q_delete_nonconfigurable_succeeds ];
      acc.coerces <- true
  | Unary _ -> ()
  | Binary (op, _, _) ->
      add acc (binop_quirks op);
      if binop_coerces op then acc.coerces <- true
  | Assign (op, lhs, _) ->
      (match op with
      | Some op ->
          add acc (binop_quirks op);
          if binop_coerces op then acc.coerces <- true;
          if op = Add then acc.compound_add <- true
      | None -> ());
      store_target acc lhs
  | Update (_, _, tgt) ->
      acc.coerces <- true;
      store_target acc tgt
  | Call _ | New _ -> acc.coerces <- true
  | Template _ -> acc.coerces <- true
  | Object_lit props ->
      List.iter
        (fun (pn, _) ->
          match pn with
          | PN_computed _ -> acc.coerces <- true
          | PN_ident n | PN_str n -> ignore n
          | PN_num _ -> ())
        props
  | Func f ->
      if f.fname <> None then add acc [ Q.Q_named_funcexpr_binding_mutable ];
      visit_func acc f
  | Arrow f -> visit_func acc f
  | Array_lit _ | Logical _ | Cond _ | Seq _ -> ()

let visit_stmt acc (st : stmt) =
  match st.s with
  | For _ | While _ | Do_while _ -> acc.any_loop <- true
  | For_in (k, n, _, _) | For_of (k, n, _, _) ->
      acc.any_loop <- true;
      if k = None then acc.writes <- n :: acc.writes
  | Func_decl f -> visit_func acc f
  | _ -> ()

let checkpoints ?(strict = false) (p : program) : Q.Set.t =
  let acc =
    {
      set = Q.Set.empty;
      saw_top = false;
      dyn_index = false;
      global_obj = false;
      coerces = false;
      this_func = false;
      any_loop = false;
      compound_add = false;
      strict_body = false;
      writes = [];
    }
  in
  Jsast.Visit.iter_program ~fe:(visit_expr acc) ~fs:(visit_stmt acc) p;
  let res = Scope.resolve p in
  let free = res.Scope.res_free_all in
  List.iter (mention acc) free;
  if List.mem "globalThis" free then acc.global_obj <- true;
  if acc.saw_top || (acc.dyn_index && acc.global_obj) then top
  else begin
    if acc.dyn_index then acc.set <- Q.Set.union acc.set name_top;
    if acc.coerces then add acc [ Q.Q_join_prints_null_undefined ];
    if acc.compound_add && acc.any_loop then
      add acc [ Q.Q_opt_loop_strconcat_drops ];
    (* strict-mode checkpoints: reachable when the testbed forces strict
       mode, the program opts in, or some function body does *)
    let strict_possible = strict || p.prog_strict || acc.strict_body in
    if strict_possible then begin
      (* consulted only where a call binds a missing receiver for a
         callee that can observe it *)
      if acc.this_func then add acc [ Q.Q_strict_this_is_global ];
      (* an undeclared-assignment consultation needs a write whose target
         resolves to no binding *)
      if List.exists (fun n -> List.mem n free) acc.writes then
        add acc [ Q.Q_strict_undeclared_assign_silent ]
    end;
    acc.set
  end

let checkpoints_src ?strict (src : string) : Q.Set.t =
  match Jsparse.Parser.check_syntax src with
  | Ok p -> checkpoints ?strict p
  | Error _ -> Q.Set.empty
