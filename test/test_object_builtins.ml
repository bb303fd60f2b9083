(* Object statics, Object.prototype, property attributes, typed arrays,
   DataView, JSON, Number, Math, global functions. *)

open Helpers

let object_tests =
  [
    ("keys", {|Object.keys({a: 1, b: 2})|}, "a,b");
    ("keys insertion order", {|Object.keys({z: 1, a: 2})|}, "z,a");
    ("keys of array", {|Object.keys([7, 8])|}, "0,1");
    ("values", {|Object.values({a: 1, b: 2})|}, "1,2");
    ("entries", {|Object.entries({a: 1})[0]|}, "a,1");
    ("fromEntries", {|Object.fromEntries([["k", 5], ["j", 6]]).k|}, "5");
    ("entries roundtrip", {|Object.fromEntries(Object.entries({x: 1, y: 2})).y|}, "2");
    ("assign", {|Object.assign({}, {a: 1}, {b: 2}).b|}, "2");
    ("assign overwrites", {|Object.assign({a: 1}, {a: 2}).a|}, "2");
    ("assign returns target", {|var t = {}; Object.assign(t, {x: 1}) === t|}, "true");
    ("create proto", {|var p = {greet: "hi"}; Object.create(p).greet|}, "hi");
    ("create null", {|Object.keys(Object.create(null)).length|}, "0");
    ("getPrototypeOf", {|Object.getPrototypeOf([]) === Object.getPrototypeOf([1])|}, "true");
    ("getOwnPropertyNames", {|Object.getOwnPropertyNames({b: 1, a: 2})|}, "b,a");
    ("hasOwnProperty", {|({a: 1}).hasOwnProperty("a")|}, "true");
    ("hasOwnProperty inherited", {|({}).hasOwnProperty("toString")|}, "false");
    ("isPrototypeOf", {|var p = {}; p.isPrototypeOf(Object.create(p))|}, "true");
    ("propertyIsEnumerable", {|({a: 1}).propertyIsEnumerable("a")|}, "true");
    ("toString", {|({}).toString()|}, "[object Object]");
    ("array class", {|Object.prototype.toString.call([])|}, "[object Array]");
    ("isExtensible default", {|Object.isExtensible({})|}, "true");
    ("preventExtensions", {|var o = {}; Object.preventExtensions(o); o.x = 1; o.x|}, "undefined");
    ("freeze blocks writes", {|var o = {a: 1}; Object.freeze(o); o.a = 9; o.a|}, "1");
    ("freeze blocks adds", {|var o = {}; Object.freeze(o); o.b = 1; o.b|}, "undefined");
    ("isFrozen", {|var o = {a: 1}; Object.freeze(o); Object.isFrozen(o)|}, "true");
    ("seal allows writes", {|var o = {a: 1}; Object.seal(o); o.a = 2; o.a|}, "2");
    ("seal blocks adds", {|var o = {a: 1}; Object.seal(o); o.b = 2; o.b|}, "undefined");
    ("seal blocks delete", {|var o = {a: 1}; Object.seal(o); delete o.a; o.a|}, "1");
    ("isSealed", {|var o = {}; Object.seal(o); Object.isSealed(o)|}, "true");
    ("frozen array elements", {|var a = [1]; Object.freeze(a); a[0] = 9; a[0]|}, "1");
    (* freezing an array leaves no property behind, and keys starting
       with "__" are ordinary keys *)
    ("frozen array: no marker via in",
     {|var a = [1]; Object.freeze(a); "__frozenElems" in a|}, "false");
    ("frozen array: no marker via hasOwnProperty",
     {|var a = [1]; Object.freeze(a); a.hasOwnProperty("__frozenElems")|}, "false");
    ("frozen array: no marker descriptor",
     {|var a = [1]; Object.freeze(a); typeof Object.getOwnPropertyDescriptor(a, "__frozenElems")|},
     "undefined");
    ("frozen array: own names", {|var a = [1]; Object.freeze(a); Object.getOwnPropertyNames(a)|},
     "0,length");
    ("isFrozen array", {|var a = [1]; Object.freeze(a); Object.isFrozen(a)|}, "true");
    ("sealed array elements writable", {|var a = [1]; Object.seal(a); a[0] = 9; a[0]|}, "9");
    ("keys with __ prefix", {|Object.keys({__a: 1, b: 2})|}, "__a,b");
    ("own names with __ prefix", {|Object.getOwnPropertyNames({__a: 1, b: 2})|}, "__a,b");
    ("for-in with __ prefix",
     {|var s = ""; for (var k in {__obs: 1, b: 2}) s += k + ";"; s|}, "__obs;b;");
    ("values with __ prefix", {|Object.values({__a: 1, b: 2})|}, "1,2");
    (* defineProperty *)
    ("defineProperty value", {|var o = {}; Object.defineProperty(o, "k", {value: 7}); o.k|}, "7");
    ("defineProperty default non-writable",
     {|var o = {}; Object.defineProperty(o, "k", {value: 1}); o.k = 2; o.k|}, "1");
    ("defineProperty writable",
     {|var o = {}; Object.defineProperty(o, "k", {value: 1, writable: true}); o.k = 2; o.k|}, "2");
    ("defineProperty non-enumerable hidden",
     {|var o = {}; Object.defineProperty(o, "k", {value: 1}); Object.keys(o).length|}, "0");
    ("defineProperty getter",
     {|var o = {}; Object.defineProperty(o, "k", {get: function() { return 42; }}); o.k|}, "42");
    ("getOwnPropertyDescriptor",
     {|var o = {a: 1}; Object.getOwnPropertyDescriptor(o, "a").writable|}, "true");
    ("descriptor of array length",
     {|Object.getOwnPropertyDescriptor([1], "length").value|}, "1");
    ("writable false then write",
     {|var o = {a: 1}; Object.defineProperty(o, "a", {writable: false}); o.a = 5; o.a|}, "1");
  ]

let object_error_tests () =
  check_error "defineProperty array length configurable"
    {|var a = [0, 1]; Object.defineProperty(a, "length", {value: 1, configurable: true});|}
    "TypeError";
  check_out "defineProperty array length value ok"
    {|var a = [0, 1, 2]; Object.defineProperty(a, "length", {value: 1}); print(a);|} "0";
  check_error "redefine non-configurable"
    {|var o = {}; Object.defineProperty(o, "k", {value: 1});
Object.defineProperty(o, "k", {value: 2, configurable: true});|}
    "TypeError";
  check_error "strict write to frozen"
    {|"use strict"; var o = Object.freeze({a: 1}); o.a = 2;|} "TypeError";
  check_error "strict add to sealed"
    {|"use strict"; var o = Object.seal({}); o.b = 1;|} "TypeError";
  check_error "keys of non-object" {|print(Object.keys(null));|} "TypeError"

let number_tests =
  [
    ("toFixed", {|(3.14159).toFixed(2)|}, "3.14");
    ("toFixed zero digits", {|(2.5).toFixed(0)|}, "2");
    ("toFixed pads", {|(2).toFixed(3)|}, "2.000");
    ("toFixed NaN", {|(NaN).toFixed(2)|}, "NaN");
    ("toPrecision", {|(123.456).toPrecision(4)|}, "123.5");
    ("toString radix 2", {|(10).toString(2)|}, "1010");
    ("toString radix 16", {|(255).toString(16)|}, "ff");
    ("toString radix 36", {|(35).toString(36)|}, "z");
    ("toString default", {|(1.5).toString()|}, "1.5");
    ("isInteger yes", {|Number.isInteger(5)|}, "true");
    ("isInteger float", {|Number.isInteger(5.5)|}, "false");
    ("isInteger string no coerce", {|Number.isInteger("5")|}, "false");
    ("isNaN strict", {|Number.isNaN("abc")|}, "false");
    ("isFinite strict", {|Number.isFinite("5")|}, "false");
    ("isSafeInteger", {|Number.isSafeInteger(9007199254740991)|}, "true");
    ("MAX_SAFE_INTEGER", {|Number.MAX_SAFE_INTEGER|}, "9007199254740991");
    ("Number()", {|Number("42")|}, "42");
    ("Number bad", {|Number("4x")|}, "NaN");
    ("Number empty string", {|Number("")|}, "0");
    ("Number null", {|Number(null)|}, "0");
    ("Number hex string", {|Number("0x10")|}, "16");
    ("parseInt", {|parseInt("42px")|}, "42");
    ("parseInt radix", {|parseInt("ff", 16)|}, "255");
    ("parseInt hex prefix", {|parseInt("0x1f")|}, "31");
    ("parseInt bad", {|parseInt("px")|}, "NaN");
    ("parseInt negative", {|parseInt("-12")|}, "-12");
    ("parseFloat prefix", {|parseFloat("3.5kg")|}, "3.5");
    ("parseFloat exponent", {|parseFloat("1e2")|}, "100");
    ("parseFloat bad", {|parseFloat("kg")|}, "NaN");
    ("global isNaN coerces", {|isNaN("abc")|}, "true");
    ("global isFinite coerces", {|isFinite("5")|}, "true");
  ]

let number_error_tests () =
  check_error "toFixed negative" {|print((1.5).toFixed(-2));|} "RangeError";
  check_error "toFixed > 100" {|print((1.5).toFixed(101));|} "RangeError";
  check_error "toPrecision 0" {|print((1.5).toPrecision(0));|} "RangeError";
  check_error "toString radix 1" {|print((5).toString(1));|} "RangeError";
  check_error "toString radix 37" {|print((5).toString(37));|} "RangeError"

let math_tests =
  [
    ("abs", {|Math.abs(-3)|}, "3");
    ("floor", {|Math.floor(2.7)|}, "2");
    ("floor negative", {|Math.floor(-2.1)|}, "-3");
    ("ceil", {|Math.ceil(2.1)|}, "3");
    ("round half up", {|Math.round(2.5)|}, "3");
    ("round negative half", {|Math.round(-2.5)|}, "-2");
    ("trunc", {|Math.trunc(-2.9)|}, "-2");
    ("max", {|Math.max(1, 9, 4)|}, "9");
    ("max empty", {|Math.max()|}, "-Infinity");
    ("max NaN", {|Math.max(1, NaN)|}, "NaN");
    ("min", {|Math.min(3, -2)|}, "-2");
    ("pow", {|Math.pow(2, 8)|}, "256");
    ("sqrt", {|Math.sqrt(144)|}, "12");
    ("sign", {|Math.sign(-9)|}, "-1");
    ("PI", {|Math.floor(Math.PI * 100)|}, "314");
  ]

let json_tests =
  [
    ("stringify number", {|JSON.stringify(1.5)|}, "1.5");
    ("stringify string", {|JSON.stringify("hi")|}, "\"hi\"");
    ("stringify escape", {|JSON.stringify("a\"b")|}, "\"a\\\"b\"");
    ("stringify null", {|JSON.stringify(null)|}, "null");
    ("stringify bool", {|JSON.stringify(true)|}, "true");
    ("stringify array", {|JSON.stringify([1, "a", null])|}, "[1,\"a\",null]");
    ("stringify object", {|JSON.stringify({a: 1, b: [2]})|}, "{\"a\":1,\"b\":[2]}");
    ("stringify nested", {|JSON.stringify({a: {b: {}}})|}, "{\"a\":{\"b\":{}}}");
    ("stringify NaN is null", {|JSON.stringify(NaN)|}, "null");
    ("stringify Infinity is null", {|JSON.stringify([Infinity])|}, "[null]");
    ("stringify skips functions", {|JSON.stringify({f: function() {}})|}, "{}");
    ("stringify undefined member skipped", {|JSON.stringify({u: undefined})|}, "{}");
    ("stringify undefined in array", {|JSON.stringify([undefined])|}, "[null]");
    ("stringify undefined top-level", {|typeof JSON.stringify(undefined)|}, "undefined");
    ("stringify indent", {|JSON.stringify({a: 1}, null, 2).length|}, "12");
    ("parse number", {|JSON.parse("42")|}, "42");
    ("parse array", {|JSON.parse("[1, 2]")[1]|}, "2");
    ("parse object", {|JSON.parse("{\"k\": \"v\"}").k|}, "v");
    ("parse nested", {|JSON.parse("{\"a\": {\"b\": [true]}}").a.b[0]|}, "true");
    ("parse string escape", {|JSON.parse("\"a\\nb\"").length|}, "3");
    ("roundtrip", {|JSON.parse(JSON.stringify({x: [1.5, "s"]})).x[1]|}, "s");
  ]

let json_error_tests () =
  check_error "parse trailing comma" {|print(JSON.parse("[1, 2, ]"));|} "SyntaxError";
  check_error "parse garbage" {|print(JSON.parse("{bad}"));|} "SyntaxError";
  check_error "parse single quotes" {|print(JSON.parse("'str'"));|} "SyntaxError";
  check_error "parse trailing chars" {|print(JSON.parse("1 2"));|} "SyntaxError"

(* A cyclic structure is a TypeError (ECMA-262 SerializeJSONObject /
   SerializeJSONArray, step 1), where stringify used to recurse without
   charging fuel; a toJSON that returns its receiver serialises the
   receiver without calling toJSON again. Same output on the production
   path and on the reference tree-walker. *)
let json_cycle_tests () =
  let catch body =
    Printf.sprintf "try { %s; print(\"no error\"); } catch (e) { print(e.name); }" body
  in
  let programs =
    [
      ("array cycle", catch "var a = [1]; a.push(a); JSON.stringify(a)", "TypeError");
      ("object cycle", catch "var o = {x: {}}; o.x.back = o; JSON.stringify(o)", "TypeError");
      ( "cycle under indent",
        catch "var o = {}; o.a = [o]; JSON.stringify(o, null, 2)",
        "TypeError" );
      ( "toJSON returns receiver",
        {|print(JSON.stringify({a: 1, toJSON: function() { return this; }}));|},
        {|{"a":1}|} );
      ( "shared, acyclic",
        {|var d = {x: [1]}; print(JSON.stringify([d, d, {y: d}]));|},
        {|[{"x":[1]},{"x":[1]},{"y":{"x":[1]}}]|} );
    ]
  in
  List.iter
    (fun (name, src, expected) ->
      List.iter
        (fun (path, config) ->
          let r = Jsinterp.Run.run ~config src in
          Alcotest.(check string) (name ^ ", " ^ path) (expected ^ "\n")
            r.Jsinterp.Run.r_output)
        [
          ("production", Jsinterp.Run.Production);
          ("reference", Jsinterp.Run.Reference);
        ])
    programs

let typed_tests =
  [
    ("u8 length", {|new Uint8Array(4).length|}, "4");
    ("u8 zero filled", {|new Uint8Array(2)[0]|}, "0");
    ("u8 wrap", {|var t = new Uint8Array(1); t[0] = 300; t[0]|}, "44");
    ("i8 sign", {|var t = new Int8Array(1); t[0] = 200; t[0]|}, "-56");
    ("u16 wrap", {|var t = new Uint16Array(1); t[0] = 65537; t[0]|}, "1");
    ("u32 big", {|var t = new Uint32Array(1); t[0] = 4294967295; t[0]|}, "4294967295");
    ("clamped clamps high", {|var t = new Uint8ClampedArray(1); t[0] = 300; t[0]|}, "255");
    ("clamped clamps low", {|var t = new Uint8ClampedArray(1); t[0] = -5; t[0]|}, "0");
    ("f64 pass-through", {|var t = new Float64Array(1); t[0] = 1.25; t[0]|}, "1.25");
    ("fractional length converts", {|new Uint32Array(3.14).length|}, "3");
    ("from array", {|new Uint8Array([1, 2, 300])|}, "1,2,44");
    ("set array", {|var t = new Uint8Array(4); t.set([9, 8], 1); t|}, "0,9,8,0");
    ("set string arraylike", {|var t = new Uint8Array(5); t.set("123"); t|}, "1,2,3,0,0");
    ("subarray", {|new Uint8Array([1, 2, 3, 4]).subarray(1, 3)|}, "2,3");
    ("join", {|new Uint8Array([1, 2]).join("-")|}, "1-2");
    ("oob write dropped", {|var t = new Uint8Array(1); t[5] = 1; t.length|}, "1");
    ("BYTES_PER_ELEMENT", {|Uint32Array.BYTES_PER_ELEMENT|}, "4");
    ("typed fill coerces", {|var t = new Uint8Array(2); t.fill(257); t|}, "1,1");
  ]

let typed_error_tests () =
  check_error "set oob" {|var t = new Uint8Array(2); t.set([1, 2, 3]);|} "RangeError";
  check_error "negative length" {|print(new Uint8Array(-1));|} "RangeError";
  check_error "dataview oob read" {|new DataView(2).getUint8(5);|} "RangeError";
  check_out "dataview roundtrip"
    {|var v = new DataView(4); v.setUint16(0, 770); print(v.getUint16(0)); print(v.getUint8(1));|}
    "770\n2";
  check_out "dataview u32"
    {|var v = new DataView(8); v.setUint32(0, 123456789); print(v.getUint32(0));|}
    "123456789"

let eval_tests () =
  check_out "eval expression" {|print(eval("1 + 2 * 3"));|} "7";
  check_out "eval string result" {|print(eval("'str' + 'ing'"));|} "string";
  check_out "eval sees scope" {|var x = 5; print(eval("x + 1"));|} "6";
  check_out "eval defines var" {|eval("var ev = 9;"); print(ev);|} "9";
  check_out "eval non-string passthrough" {|print(eval(42));|} "42";
  check_error "eval syntax error" {|eval("var = ;");|} "SyntaxError";
  check_error "eval for without body" {|eval("for(var i = 0; i < 5; i++)");|} "SyntaxError";
  check_out "eval catches" {|try { eval("}{"); } catch (e) { print(e.name); }|} "SyntaxError"

let regexp_object_tests () =
  check_out "test true" {|print(/a.c/.test("abc"));|} "true";
  check_out "test false" {|print(/a.c/.test("a\nc"));|} "false";
  check_out "exec groups" {|var m = /(\d+)-(\d+)/.exec("10-20"); print(m[1]); print(m[2]);|} "10\n20";
  check_out "exec index" {|print(/b/.exec("abc").index);|} "1";
  check_out "exec miss" {|print(/z/.exec("abc"));|} "null";
  check_out "global lastIndex advances"
    {|var re = /a/g; re.exec("aa"); print(re.lastIndex); re.exec("aa"); print(re.lastIndex);|}
    "1\n2";
  check_out "lastIndex resets on miss"
    {|var re = /a/g; re.exec("xa"); re.exec("xa"); print(re.lastIndex);|} "0";
  check_out "source and flags" {|var re = /ab/gi; print(re.source); print(re.flags);|} "ab\ngi";
  check_out "RegExp constructor" {|print(new RegExp("\\d+").test("x5"));|} "true";
  check_out "compile replaces" {|var re = /a/; re.compile("b"); print(re.test("b"));|} "true";
  check_out "toString" {|print(/x/g + "");|} "/x/g";
  check_error "lastIndex non-writable compile"
    {|var re = /a/g; Object.defineProperty(re, "lastIndex", {writable: false}); re.compile("b");|}
    "TypeError";
  check_error "bad regexp" {|new RegExp("(");|} "SyntaxError"

let date_tests () =
  check_out "Date.now deterministic" {|print(Date.now() === Date.now());|} "true";
  check_out "getTime" {|print(new Date(123).getTime());|} "123";
  check_out "valueOf" {|print(new Date(5) - new Date(2));|} "3"

let suite =
  List.map
    (fun (name, expr, expected) -> case name (fun () -> check_expr name expr expected))
    (object_tests @ number_tests @ math_tests @ json_tests @ typed_tests)
  @ [
      case "object errors" object_error_tests;
      case "number errors" number_error_tests;
      case "json errors" json_error_tests;
      case "json cycles" json_cycle_tests;
      case "typed arrays + dataview" typed_error_tests;
      case "eval" eval_tests;
      case "regexp objects" regexp_object_tests;
      case "date stub" date_tests;
    ]
