(* Lexer, parser, printer: acceptance, rejection, ASI, engine front-end
   options, and a QCheck print/parse round-trip over random ASTs. *)

open Helpers
module Ast = Jsast.Ast
module B = Jsast.Builder
module P = Jsparse.Parser

let parses src =
  match P.parse_program src with
  | _ -> true
  | exception P.Syntax_error _ -> false

let accepted =
  [
    "var x = 1;";
    "let y = 2; const z = 3;";
    "function f(a, b) { return a + b; }";
    "var f = function() {};";
    "var f = (a) => a + 1;";
    "var f = x => x;";
    "if (a) b(); else c();";
    "for (var i = 0; i < 10; i++) work();";
    "for (;;) { break; }";
    "for (var k in obj) {}";
    "for (k in obj) {}";
    "for (var v of list) {}";
    "while (x) x--;";
    "do { x++; } while (x < 3);";
    "switch (x) { case 1: break; default: }";
    "try {} catch (e) {}";
    "try {} finally {}";
    "throw new Error(\"x\");";
    "a.b.c.d;";
    "a[0][\"k\"];";
    "new Foo(1, 2);";
    "new Foo;";
    "new new Wrap(Inner)();";
    "x = y = z = 1;";
    "x += 1; x -= 1; x *= 2; x /= 2; x %= 2; x **= 2;";
    "x &= 1; x |= 1; x ^= 1;";
    "a ? b : c;";
    "a, b, c;";
    "var o = {a: 1, \"b\": 2, 3: 4, [k]: 5, shorthand};";
    "var a = [1, , 3];";
    "var a = [];";
    "/abc/.test(s);";
    "var re = /a\\/b/gi;";
    "s.split(/,\\s*/);";
    "`template ${x + 1} tail`;";
    "label: while (1) { break label; }";
    "x++; x--; ++x; --x;";
    "typeof x; void 0; delete o.k;";
    "a instanceof B;";
    "\"k\" in o;";
    "1 .toString();";
    "(1).toString();";
    "x.in;"; (* keyword as property name *)
    "var of = 3; print(of);";
    "0x1F + 0Xff;";
    "1e3 + 1.5e-2 + .5;";
    "a() && b() || c();";
    "var s = 'single quotes';";
    "f(function() { return 1; });";
    "print(- -1);";
    "debugger;";
    (* ASI *)
    "var a = 1\nvar b = 2\nprint(a + b)";
    "x = 1\ny = 2";
    "return_less();\n{ }";
  ]

let rejected =
  [
    "var = 1;";
    "var 1x = 2;";
    "function () {}";
    "if (x";
    "for (var i = 0; i < 5; i++)"; (* missing loop body *)
    "while (x)";
    "x = ;";
    "a.;";
    "var o = {a 1};";
    "try {}"; (* no catch/finally *)
    "switch (x) { default: ; default: ; }";
    "const c;";
    "throw\n1;"; (* newline after throw *)
    "var s = \"unterminated;";
    "/* unterminated";
    "var class = 1;"; (* reserved word *)
    "x = 3in y;";
    "0x;";
    "1.5e;";
    "var re = /a/q;"; (* bad flag *)
    "continue outside;"; (* label after continue is parsed; outside a loop is semantic... *)
  ]

let acceptance_tests () =
  List.iter
    (fun src ->
      if not (parses src) then Alcotest.failf "should parse: %s" src)
    accepted

let rejection_tests () =
  List.iter
    (fun src ->
      match src with
      | "continue outside;" -> () (* parsed fine; runtime concern *)
      | _ ->
          if parses src then Alcotest.failf "should NOT parse: %s" src)
    rejected

let es5_options_tests () =
  let es5 src =
    match P.parse_program ~opts:P.es5_options src with
    | _ -> true
    | exception P.Syntax_error _ -> false
  in
  Alcotest.(check bool) "es5 rejects let" false (es5 "let x = 1;");
  Alcotest.(check bool) "es5 rejects const" false (es5 "const x = 1;");
  Alcotest.(check bool) "es5 rejects arrows" false (es5 "var f = (x) => x;");
  Alcotest.(check bool) "es5 rejects templates" false (es5 "var t = `x`;");
  Alcotest.(check bool) "es5 rejects for-of" false (es5 "for (var v of a) {}");
  Alcotest.(check bool) "es5 rejects exponent" false (es5 "var x = 2 ** 3;");
  Alcotest.(check bool) "es5 accepts plain code" true
    (es5 "var x = 1; function f() { return x; }");
  (* quirk options *)
  let chakra =
    { P.default_options with P.accept_for_missing_body = true }
  in
  Alcotest.(check bool) "chakra accepts bodiless for" true
    (match P.parse_program ~opts:chakra "for(var i = 0; i < 5; i++)" with
    | _ -> true
    | exception P.Syntax_error _ -> false)

let asi_tests () =
  check_out "asi basic" "var a = 1\nvar b = 2\nprint(a + b)" "3";
  check_out "asi return restriction"
    "function f() { return\n42; }\nprint(f());" "undefined";
  check_out "asi before close brace" "function f() { return 7 }\nprint(f())" "7";
  check_out "postfix stays on line"
    "var x = 1\nx++\nprint(x)" "2"

let directive_tests () =
  let p = P.parse_program "\"use strict\";\nvar x = 1;" in
  Alcotest.(check bool) "program strict flag" true p.Ast.prog_strict;
  let p2 = P.parse_program "var x = 1;" in
  Alcotest.(check bool) "no strict flag" false p2.Ast.prog_strict

(* --- QCheck: printer/parser round-trip over random programs --- *)

let gen_ident =
  QCheck2.Gen.(oneofl [ "a"; "b"; "x"; "y"; "foo"; "bar"; "v1"; "tmp" ])

let gen_lit =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> B.int i) (int_range (-1000) 1000);
        map (fun f -> B.num (Float.abs f)) (float_bound_inclusive 1e6);
        map (fun s -> B.str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        return (B.bool true);
        return (B.bool false);
        return B.null;
      ])

let rec gen_expr depth =
  let open QCheck2.Gen in
  if depth = 0 then oneof [ gen_lit; map B.ident gen_ident ]
  else
    oneof
      [
        gen_lit;
        map B.ident gen_ident;
        map2 (B.binary Ast.Add) (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map2 (B.binary Ast.Mul) (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map2 (B.binary Ast.Lt) (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map2 (B.logical Ast.And) (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map (fun e -> B.unary Ast.Unot e) (gen_expr (depth - 1));
        map (fun e -> B.unary Ast.Uneg e) (gen_expr (depth - 1));
        map3 (fun c t f -> B.cond c t f) (gen_expr (depth - 1))
          (gen_expr (depth - 1)) (gen_expr (depth - 1));
        map2 (fun o n -> B.field o n) (gen_expr (depth - 1)) gen_ident;
        map2 (fun f a -> B.call f [ a ]) (map B.ident gen_ident) (gen_expr (depth - 1));
        map (fun es -> B.array es) (list_size (int_range 0 3) (gen_expr (depth - 1)));
      ]

let rec gen_stmt depth =
  let open QCheck2.Gen in
  if depth = 0 then map B.expr_stmt (gen_expr 1)
  else
    oneof
      [
        map B.expr_stmt (gen_expr 2);
        map2 (fun n e -> B.var n e) gen_ident (gen_expr 2);
        map2 (fun c b -> B.if_ c b) (gen_expr 1) (gen_stmt (depth - 1));
        map2 (fun c b -> B.s (Ast.While (c, b))) (gen_expr 1) (gen_stmt (depth - 1));
        map (fun b -> B.block [ b ]) (gen_stmt (depth - 1));
        map (fun e -> B.return_ e) (gen_expr 2);
        map3
          (fun n ps b -> B.func_decl n ps [ b ])
          gen_ident
          (list_size (int_range 0 3) gen_ident)
          (gen_stmt (depth - 1));
        map (fun e -> B.throw e) (gen_expr 1);
      ]

let gen_program =
  QCheck2.Gen.(
    map (fun stmts -> B.program stmts) (list_size (int_range 1 6) (gen_stmt 2)))

let roundtrip_prop =
  QCheck2.Test.make ~count:300 ~name:"print/parse round-trip" gen_program
    (fun p ->
      let s1 = Jsast.Printer.program_to_string p in
      match P.parse_program s1 with
      | exception P.Syntax_error (msg, line) ->
          QCheck2.Test.fail_reportf "emitted invalid syntax (line %d: %s):\n%s"
            line msg s1
      | p2 ->
          let s2 = Jsast.Printer.program_to_string p2 in
          if s1 = s2 then true
          else
            QCheck2.Test.fail_reportf "round-trip mismatch:\n--- 1:\n%s\n--- 2:\n%s" s1 s2)

let idempotent_prop =
  QCheck2.Test.make ~count:200 ~name:"refresh preserves printing" gen_program
    (fun p ->
      let s1 = Jsast.Printer.program_to_string p in
      let s2 = Jsast.Printer.program_to_string (B.refresh_program p) in
      s1 = s2)

let deep_parens_parse_linearly () =
  (* arrow detection looks up each '(' group's closing ')' instead of
     rescanning to it, so deep nesting parses in linear time *)
  let n = 65_536 in
  let src =
    "print(" ^ String.make n '(' ^ "1" ^ String.make n ')' ^ ");"
  in
  let t0 = Unix.gettimeofday () in
  ignore (P.parse_program src);
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "64k nested parens parsed in %.2f s (< 2 s)" dt)
    true (dt < 2.0);
  (* the lookup still tells arrow heads from parenthesised expressions *)
  List.iter
    (fun src -> ignore (P.parse_program src))
    [
      "var f = (a, b) => ((a) + (b));";
      "var g = ((x)) + ((y) => y)(1);";
      "var h = (a) => (b) => ((a)(b));";
    ];
  match P.parse_program "var k = ((a)) => 1;" with
  | _ -> Alcotest.fail "a parenthesised arrow head must be rejected"
  | exception P.Syntax_error _ -> ()

let suite =
  [
    case "accepted programs" acceptance_tests;
    case "64k nested parens parse in linear time" deep_parens_parse_linearly;
    case "rejected programs" rejection_tests;
    case "es5 and quirk options" es5_options_tests;
    case "automatic semicolon insertion" asi_tests;
    case "directive prologue" directive_tests;
    QCheck_alcotest.to_alcotest roundtrip_prop;
    QCheck_alcotest.to_alcotest idempotent_prop;
  ]
