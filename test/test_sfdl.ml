(* Tests for the mini-SFDL front end: lexer, parser, typechecker and the
   circuit compiler's semantics (checked by plaintext evaluation). *)

open Eppi_sfdl
module Circuit = Eppi_circuit.Circuit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Compile a program, run it with named inputs, return named outputs. *)
let run_program src values =
  let compiled = Compile.compile_source src in
  let inputs = Compile.encode_inputs compiled values in
  let bits = Circuit.eval compiled.circuit ~inputs in
  Compile.decode_outputs compiled bits

let get_int outputs name =
  match Compile.lookup_output outputs name with
  | Compile.Dint v -> v
  | _ -> Alcotest.fail (name ^ " is not an int output")

let get_bool outputs name =
  match Compile.lookup_output outputs name with
  | Compile.Dbool v -> v
  | _ -> Alcotest.fail (name ^ " is not a bool output")

let get_ints outputs name =
  match Compile.lookup_output outputs name with
  | Compile.Dints v -> v
  | _ -> Alcotest.fail (name ^ " is not an int-array output")

(* ---------- lexer ---------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "program x; const A = 10; // comment\n main { }" in
  let kinds = List.map (fun (l : Lexer.lexeme) -> l.token) toks in
  check_bool "has program kw" true (List.mem (Lexer.KW "program") kinds);
  check_bool "has ident" true (List.mem (Lexer.IDENT "x") kinds);
  check_bool "has int" true (List.mem (Lexer.INT 10) kinds);
  check_bool "comment stripped" false
    (List.exists (function Lexer.IDENT "comment" -> true | _ -> false) kinds);
  check_bool "ends with eof" true (List.mem Lexer.EOF kinds)

let test_lexer_two_char_punct () =
  let toks = Lexer.tokenize "<= >= == != && || .." in
  let puncts =
    List.filter_map (fun (l : Lexer.lexeme) ->
        match l.token with Lexer.PUNCT p -> Some p | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "longest match" [ "<="; ">="; "=="; "!="; "&&"; "||"; ".." ] puncts

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      check_int "a line" 1 a.Lexer.pos.line;
      check_int "b line" 2 b.Lexer.pos.line;
      check_int "b col" 3 b.Lexer.pos.col
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_bad_char () =
  Alcotest.check_raises "unexpected char"
    (Lexer.Error ("unexpected character '@'", { Ast.line = 1; col = 1 }))
    (fun () -> ignore (Lexer.tokenize "@"))

(* ---------- parser ---------- *)

let test_parser_minimal () =
  let p = Parser.parse "program tiny; party a; input x : bool of a; output y : bool; main { y = x; }" in
  check_int "decl count" 3 (List.length p.decls);
  check_int "stmt count" 1 (List.length p.body);
  Alcotest.(check string) "name" "tiny" p.name

let test_parser_precedence () =
  (* 1 + 2 * 3 == 7 must hold under correct precedence. *)
  let outputs =
    run_program
      {|program prec;
party a;
input dummy : bool of a;
output r : bool;
main { r = 1 + 2 * 3 == 7; }
|}
      [ ("dummy", Compile.Dbool false) ]
  in
  check_bool "precedence" true (get_bool outputs "r")

let test_parser_ternary_nested () =
  let outputs =
    run_program
      {|program tern;
party a;
input x : uint<4> of a;
output r : uint<4>;
main { r = x > 5 ? x > 10 ? 3 : 2 : 1; }
|}
      [ ("x", Compile.Dint 7) ]
  in
  check_int "nested ternary" 2 (get_int outputs "r")

let test_parser_error_position () =
  (try
     ignore (Parser.parse "program bad; main { x = ; }");
     Alcotest.fail "expected a parse error"
   with Parser.Error (_, pos) -> check_int "error line" 1 pos.Ast.line)

(* ---------- typechecker ---------- *)

let expect_type_error src fragment =
  let p = Parser.parse src in
  match Typecheck.check_result p with
  | Ok () -> Alcotest.fail ("expected type error mentioning: " ^ fragment)
  | Error e ->
      let contains =
        let la = String.length fragment and ls = String.length e.message in
        let rec go i = i + la <= ls && (String.sub e.message i la = fragment || go (i + 1)) in
        go 0
      in
      check_bool (Printf.sprintf "message %S mentions %S" e.message fragment) true contains

let test_typecheck_accepts_valid () =
  let p =
    Parser.parse
      {|program ok;
const W = 4;
party a;
party b;
input x : uint<W> of a;
input ys : uint<W>[3] of b;
output total : uint<W + 2>;
var tmp : uint<W + 2>;
main {
  tmp = x;
  for i in 0 .. 2 { tmp = tmp + ys[i]; }
  if (tmp > 10) { tmp = tmp - 1; } else { tmp = tmp + 1; }
  total = tmp;
}
|}
  in
  match Typecheck.check_result p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e.message

let test_typecheck_rejects_unknown_var () =
  expect_type_error "program t; party a; input x : bool of a; main { y = x; }" "unknown identifier"

let test_typecheck_rejects_assign_to_input () =
  expect_type_error "program t; party a; input x : bool of a; main { x = true; }"
    "cannot assign to input"

let test_typecheck_rejects_bool_int_mix () =
  expect_type_error
    "program t; party a; input x : bool of a; output r : uint<4>; main { r = x + 1; }"
    "must be integers"

let test_typecheck_accepts_secret_read_index () =
  let p =
    Parser.parse
      {|program t;
party a;
input i : uint<2> of a;
input xs : uint<4>[4] of a;
output r : uint<4>;
main { r = xs[i]; }
|}
  in
  match Typecheck.check_result p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e.message

let test_typecheck_rejects_secret_write_index () =
  expect_type_error
    {|program t;
party a;
input i : uint<2> of a;
output ys : uint<4>[4];
main { ys[i] = 1; }
|}
    "public"

let test_typecheck_rejects_secret_loop_bound () =
  expect_type_error
    {|program t;
party a;
input x : uint<4> of a;
output r : uint<4>;
main { for i in 0 .. x { r = r + 1; } }
|}
    "public"

let test_typecheck_rejects_unknown_party () =
  expect_type_error "program t; party a; input x : bool of ghost; main { }" "unknown party"

let test_typecheck_rejects_duplicate () =
  expect_type_error "program t; party a; const a = 1; main { }" "duplicate"

let test_typecheck_rejects_nonbool_condition () =
  expect_type_error
    "program t; party a; input x : uint<4> of a; output r : uint<4>; main { if (x) { r = 1; } }"
    "must be bool"

let test_typecheck_rejects_no_parties () =
  expect_type_error "program t; const A = 1; main { }" "no parties"

let test_typecheck_rejects_whole_array_assign () =
  expect_type_error
    {|program t;
party a;
input xs : uint<4>[2] of a;
output ys : uint<4>[2];
main { ys = xs[0]; }
|}
    "array"

(* ---------- compiler semantics ---------- *)

let test_compile_arithmetic () =
  let outputs =
    run_program
      {|program arith;
party a;
party b;
input x : uint<8> of a;
input y : uint<8> of b;
output sum : uint<9>;
output diff : uint<8>;
output prod : uint<16>;
output quot : uint<8>;
output rem : uint<8>;
main {
  sum = x + y;
  diff = x - y;
  prod = x * y;
  quot = x / y;
  rem = x % y;
}
|}
      [ ("x", Compile.Dint 200); ("y", Compile.Dint 7) ]
  in
  check_int "sum" 207 (get_int outputs "sum");
  check_int "diff" 193 (get_int outputs "diff");
  check_int "prod" 1400 (get_int outputs "prod");
  check_int "quot" 28 (get_int outputs "quot");
  check_int "rem" 4 (get_int outputs "rem")

let test_compile_for_accumulation () =
  let outputs =
    run_program
      {|program loops;
const N = 5;
party a;
input xs : uint<4>[N] of a;
output total : uint<8>;
main {
  total = 0;
  for i in 0 .. N - 1 { total = total + xs[i]; }
}
|}
      [ ("xs", Compile.Dints [| 1; 2; 3; 4; 5 |]) ]
  in
  check_int "loop sum" 15 (get_int outputs "total")

let test_compile_secret_if_mux () =
  let run x =
    run_program
      {|program branch;
party a;
input x : uint<4> of a;
output r : uint<4>;
main {
  r = 0;
  if (x > 7) { r = 1; } else { r = 2; }
}
|}
      [ ("x", Compile.Dint x) ]
  in
  check_int "then branch" 1 (get_int (run 9) "r");
  check_int "else branch" 2 (get_int (run 3) "r")

let test_compile_public_if_static () =
  (* A public condition must not generate a mux: branch picked statically. *)
  let compiled =
    Compile.compile_source
      {|program pub;
const FLAG = 1;
party a;
input x : uint<4> of a;
output r : uint<4>;
main {
  if (FLAG == 1) { r = x; } else { r = x + 1; }
}
|}
  in
  let stats = Circuit.stats compiled.circuit in
  check_int "no and gates needed" 0 stats.and_gates

let test_compile_nested_if_state () =
  let run x =
    run_program
      {|program nested;
party a;
input x : uint<8> of a;
output hi : bool;
output band : uint<4>;
main {
  hi = false;
  band = 0;
  if (x > 100) {
    hi = true;
    if (x > 200) { band = 2; } else { band = 1; }
  }
}
|}
      [ ("x", Compile.Dint x) ]
  in
  let o1 = run 250 in
  check_bool "hi 250" true (get_bool o1 "hi");
  check_int "band 250" 2 (get_int o1 "band");
  let o2 = run 150 in
  check_bool "hi 150" true (get_bool o2 "hi");
  check_int "band 150" 1 (get_int o2 "band");
  let o3 = run 50 in
  check_bool "hi 50" false (get_bool o3 "hi");
  check_int "band 50" 0 (get_int o3 "band")

let test_compile_const_array_indexing () =
  let outputs =
    run_program
      {|program consts;
const T = [10, 20, 30];
party a;
input x : uint<8> of a;
output picked : uint<8>;
main {
  picked = 0;
  for i in 0 .. 2 { if (x >= T[i]) { picked = T[i]; } }
}
|}
      [ ("x", Compile.Dint 25) ]
  in
  check_int "largest threshold below" 20 (get_int outputs "picked")

let test_compile_truncating_assignment () =
  let outputs =
    run_program
      {|program trunc;
party a;
input x : uint<8> of a;
output low : uint<4>;
main { low = x + 0; }
|}
      [ ("x", Compile.Dint 0xAB) ]
  in
  check_int "low nibble kept" 0xB (get_int outputs "low")

let test_compile_bool_ops () =
  let outputs =
    run_program
      {|program bools;
party a;
input x : bool of a;
input y : bool of a;
output andv : bool;
output orv : bool;
output xorv : bool;
output notv : bool;
output eqv : bool;
main {
  andv = x && y;
  orv = x || y;
  xorv = x ^ y;
  notv = !x;
  eqv = x == y;
}
|}
      [ ("x", Compile.Dbool true); ("y", Compile.Dbool false) ]
  in
  check_bool "and" false (get_bool outputs "andv");
  check_bool "or" true (get_bool outputs "orv");
  check_bool "xor" true (get_bool outputs "xorv");
  check_bool "not" false (get_bool outputs "notv");
  check_bool "eq" false (get_bool outputs "eqv")

let test_compile_out_of_bounds_index () =
  match
    Compile.compile_source
      {|program oob;
const N = 3;
party a;
input xs : uint<4>[N] of a;
output r : uint<4>;
main { for i in 0 .. N { r = xs[i]; } }
|}
  with
  | _ -> Alcotest.fail "expected an out-of-bounds error"
  | exception Compile.Error (msg, _) ->
      Alcotest.(check string) "message" "index 3 out of bounds for xs (length 3)" msg

let test_encode_validation () =
  let compiled = Compile.compile_source (Programs.millionaires ~width:4) in
  Alcotest.check_raises "missing input"
    (Invalid_argument "encode_inputs: missing value for input b") (fun () ->
      ignore (Compile.encode_inputs compiled [ ("a", Compile.Dint 3) ]));
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "encode_inputs: a=99 does not fit in 4 bits") (fun () ->
      ignore (Compile.encode_inputs compiled [ ("a", Compile.Dint 99); ("b", Compile.Dint 1) ]))

(* ---------- canned programs ---------- *)

let test_millionaires_program () =
  let src = Programs.millionaires ~width:16 in
  List.iter
    (fun (a, b) ->
      let outputs = run_program src [ ("a", Compile.Dint a); ("b", Compile.Dint b) ] in
      check_bool (Printf.sprintf "%d > %d" a b) (a > b) (get_bool outputs "alice_richer"))
    [ (100, 50); (50, 100); (77, 77); (0, 65535) ]

let test_sum3_program () =
  let outputs =
    run_program (Programs.sum3 ~width:8)
      [ ("x0", Compile.Dint 100); ("x1", Compile.Dint 200); ("x2", Compile.Dint 255) ]
  in
  check_int "three-party sum" 555 (get_int outputs "total")

let test_vickrey_program () =
  let src = Programs.vickrey_auction ~width:8 ~bidders:4 in
  let outputs =
    run_program src
      [
        ("bid0", Compile.Dint 10);
        ("bid1", Compile.Dint 99);
        ("bid2", Compile.Dint 40);
        ("bid3", Compile.Dint 70);
      ]
  in
  check_int "winner" 1 (get_int outputs "winner");
  check_int "second price" 70 (get_int outputs "price")

let test_count_below_program () =
  (* Full semantic check against a plaintext reference on random shares. *)
  let open Eppi_prelude in
  let q = 37 in
  let c = 3 in
  let rng = Rng.create 77 in
  let freqs = [| 0; 5; 36; 18; 18 |] in
  let thresholds = [| 1; 6; 30; 18; 19 |] in
  let qm = Modarith.modulus q in
  let shares = Array.map (fun v -> Eppi_secretshare.Additive.share rng ~q:qm ~c v) freqs in
  let svec k = Array.map (fun sh -> sh.(k)) shares in
  let outputs =
    run_program
      (Programs.count_below ~c ~q ~thresholds)
      (List.init c (fun k -> (Printf.sprintf "s%d" k, Compile.Dints (svec k))))
  in
  (match Compile.lookup_output outputs "common" with
  | Compile.Dbools commons ->
      Array.iteri
        (fun j expected ->
          check_bool (Printf.sprintf "common[%d]" j) expected commons.(j))
        (Array.mapi (fun j f -> f >= thresholds.(j)) freqs)
  | _ -> Alcotest.fail "bad common shape");
  let expected_count =
    Array.to_list (Array.mapi (fun j f -> f >= thresholds.(j)) freqs)
    |> List.filter Fun.id |> List.length
  in
  check_int "count" expected_count (get_int outputs "count");
  let freq_out = get_ints outputs "freq" in
  Array.iteri
    (fun j f ->
      if f >= thresholds.(j) then check_int (Printf.sprintf "freq[%d] masked" j) 0 freq_out.(j)
      else check_int (Printf.sprintf "freq[%d] revealed" j) f freq_out.(j))
    freqs

let test_count_below_validation () =
  Alcotest.check_raises "c too small"
    (Invalid_argument "Programs.count_below: need at least 2 coordinators") (fun () ->
      ignore (Programs.count_below ~c:1 ~q:11 ~thresholds:[| 1 |]));
  Alcotest.check_raises "threshold out of range"
    (Invalid_argument "Programs.count_below: threshold out of [0, q)") (fun () ->
      ignore (Programs.count_below ~c:3 ~q:11 ~thresholds:[| 11 |]))

(* ---------- differential testing: interpreter vs compiled circuit ---------- *)

let run_interp src values = Interp.run_source src ~inputs:values

let diff_check src values =
  (* Both paths must agree: same outputs, or the same rejection (e.g. a
     negative public constant flowing into the circuit). *)
  let attempt f = try Ok (f ()) with Compile.Error (m, _) | Interp.Error (m, _) -> Error m in
  match (attempt (fun () -> run_program src values), attempt (fun () -> run_interp src values)) with
  | Ok compiled_out, Ok interp_out ->
      Alcotest.(check int) "same output count" (List.length compiled_out)
        (List.length interp_out);
      List.iter2
        (fun (n1, d1) (n2, d2) ->
          Alcotest.(check string) "output name" n1 n2;
          check_bool (Printf.sprintf "output %s agrees" n1) true (d1 = d2))
        compiled_out interp_out
  | Error m1, Error m2 -> Alcotest.(check string) "same rejection" m1 m2
  | Ok _, Error m -> Alcotest.fail ("interpreter rejected what the compiler accepted: " ^ m)
  | Error m, Ok _ -> Alcotest.fail ("compiler rejected what the interpreter accepted: " ^ m)

let test_interp_matches_compile_canned () =
  diff_check (Programs.millionaires ~width:8)
    [ ("a", Compile.Dint 200); ("b", Compile.Dint 13) ];
  diff_check (Programs.sum3 ~width:8)
    [ ("x0", Compile.Dint 255); ("x1", Compile.Dint 255); ("x2", Compile.Dint 255) ];
  diff_check
    (Programs.vickrey_auction ~width:8 ~bidders:3)
    [ ("bid0", Compile.Dint 17); ("bid1", Compile.Dint 90); ("bid2", Compile.Dint 44) ];
  diff_check
    (Programs.count_below ~c:3 ~q:11 ~thresholds:[| 5; 2 |])
    [
      ("s0", Compile.Dints [| 3; 10 |]);
      ("s1", Compile.Dints [| 4; 0 |]);
      ("s2", Compile.Dints [| 9; 2 |]);
    ]

let test_interp_edge_semantics () =
  (* Division/modulo by a secret zero: the hardware convention, on both
     paths. *)
  let src =
    {|program divzero;
party p;
input x : uint<4> of p;
input y : uint<4> of p;
output q : uint<4>;
output r : uint<4>;
main { q = x / y; r = x % y; }
|}
  in
  diff_check src [ ("x", Compile.Dint 11); ("y", Compile.Dint 0) ];
  (* Subtraction underflow wraps at the common width on both paths. *)
  let src2 =
    {|program wrap;
party p;
input x : uint<4> of p;
input y : uint<4> of p;
output d : uint<4>;
main { d = x - y; }
|}
  in
  diff_check src2 [ ("x", Compile.Dint 3); ("y", Compile.Dint 12) ]

let test_secret_index_semantics () =
  let src =
    {|program secidx;
party p;
input i : uint<4> of p;
input xs : uint<6>[5] of p;
const T = [10, 20, 30];
output r : uint<6>;
output c : uint<6>;
main {
  r = xs[i];
  c = T[i];
}
|}
  in
  (* In range: the selected cell; out of range: zero. *)
  List.iter
    (fun i ->
      let values = [ ("i", Compile.Dint i); ("xs", Compile.Dints [| 9; 8; 7; 6; 5 |]) ] in
      diff_check src values;
      let out = run_program src values in
      let expected_r = if i < 5 then [| 9; 8; 7; 6; 5 |].(i) else 0 in
      let expected_c = if i < 3 then [| 10; 20; 30 |].(i) else 0 in
      check_int (Printf.sprintf "xs[%d]" i) expected_r (get_int out "r");
      check_int (Printf.sprintf "T[%d]" i) expected_c (get_int out "c"))
    [ 0; 2; 4; 5; 9; 15 ]

(* Random well-typed program generator.  Produces source text from a seeded
   Rng; the scaffold (inputs/outputs/vars) is fixed, the body is random. *)
let random_program rng =
  let open Eppi_prelude in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "program fuzzed;";
  line "const C = 6;";
  line "const T = [2, 5, 9];";
  line "party p0;";
  line "party p1;";
  line "input a : uint<5> of p0;";
  line "input b : uint<5> of p1;";
  line "input xs : uint<4>[3] of p0;";
  line "input f : bool of p0;";
  line "input g : bool of p1;";
  line "output r1 : uint<8>;";
  line "output r2 : uint<6>;";
  line "output ob : bool;";
  line "var t : uint<10>;";
  line "var ys : uint<4>[3];";
  let fresh_loop =
    let counter = ref 0 in
    fun () ->
      incr counter;
      Printf.sprintf "i%d" !counter
  in
  let rec uexpr depth loops =
    if depth = 0 || Rng.int rng 3 = 0 then
      match Rng.int rng (if loops = [] then 7 else 8) with
      | 0 -> string_of_int (Rng.int rng 31)
      | 1 -> "a"
      | 2 -> "b"
      | 3 -> "t"
      | 4 -> (
          (* Mix public, in-range secret and possibly-out-of-range secret
             indexes. *)
          match Rng.int rng 4 with
          | 0 -> Printf.sprintf "xs[%d]" (Rng.int rng 3)
          | 1 -> "xs[(a % 3)]"
          | 2 -> "xs[(b % 4)]"
          | _ -> "T[(a % 5)]")
      | 5 -> "C"
      | 6 -> Printf.sprintf "T[%d]" (Rng.int rng 3)
      | _ -> List.nth loops (Rng.int rng (List.length loops))
    else
      match Rng.int rng 9 with
      | 0 -> Printf.sprintf "(%s + %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 1 -> Printf.sprintf "(%s - %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 2 -> Printf.sprintf "(%s * %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 3 ->
          (* Keep one operand secret so public division by zero (a compile
             error on both paths) cannot arise. *)
          Printf.sprintf "(%s / (a + %s))" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 4 -> Printf.sprintf "(%s %% (b + %s))" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 5 -> Printf.sprintf "(%s & %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 6 -> Printf.sprintf "(%s | %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 7 -> Printf.sprintf "(%s ^ %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | _ ->
          Printf.sprintf "(%s ? %s : %s)" (bexpr (depth - 1) loops) (uexpr (depth - 1) loops)
            (uexpr (depth - 1) loops)
  and bexpr depth loops =
    if depth = 0 || Rng.int rng 3 = 0 then
      match Rng.int rng 3 with 0 -> "f" | 1 -> "g" | _ -> "true"
    else
      match Rng.int rng 7 with
      | 0 -> Printf.sprintf "(%s < %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 1 -> Printf.sprintf "(%s >= %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 2 -> Printf.sprintf "(%s == %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
      | 3 -> Printf.sprintf "(%s && %s)" (bexpr (depth - 1) loops) (bexpr (depth - 1) loops)
      | 4 -> Printf.sprintf "(%s || %s)" (bexpr (depth - 1) loops) (bexpr (depth - 1) loops)
      | 5 -> Printf.sprintf "(!%s)" (bexpr (depth - 1) loops)
      | _ -> Printf.sprintf "(%s != %s)" (uexpr (depth - 1) loops) (uexpr (depth - 1) loops)
  in
  let rec stmt indent depth loops =
    let pad = String.make indent ' ' in
    match Rng.int rng (if depth = 0 then 5 else 7) with
    | 0 -> line "%st = %s;" pad (uexpr 2 loops)
    | 1 -> line "%sr1 = %s;" pad (uexpr 2 loops)
    | 2 -> line "%sr2 = %s;" pad (uexpr 2 loops)
    | 3 -> line "%sob = %s;" pad (bexpr 2 loops)
    | 4 -> line "%sys[%d] = %s;" pad (Rng.int rng 3) (uexpr 2 loops)
    | 5 ->
        line "%sif (%s) {" pad (bexpr 2 loops);
        block (indent + 2) (depth - 1) loops;
        if Rng.bool rng then begin
          line "%s} else {" pad;
          block (indent + 2) (depth - 1) loops
        end;
        line "%s}" pad
    | _ ->
        let v = fresh_loop () in
        line "%sfor %s in 0 .. 2 {" pad v;
        block (indent + 2) (depth - 1) (v :: loops);
        line "%s}" pad
  and block indent depth loops =
    for _ = 1 to 1 + Rng.int rng 3 do
      stmt indent depth loops
    done
  in
  line "main {";
  block 2 2 [];
  line "}";
  Buffer.contents buf

let test_fuzz_interp_vs_compile () =
  let open Eppi_prelude in
  for seed = 1 to 150 do
    let rng = Rng.create seed in
    let src = random_program rng in
    let values =
      [
        ("a", Compile.Dint (Rng.int rng 32));
        ("b", Compile.Dint (Rng.int rng 32));
        ("xs", Compile.Dints (Array.init 3 (fun _ -> Rng.int rng 16)));
        ("f", Compile.Dbool (Rng.bool rng));
        ("g", Compile.Dbool (Rng.bool rng));
      ]
    in
    try diff_check src values
    with exn ->
      let show (n, d) =
        match d with
        | Compile.Dint v -> Printf.sprintf "%s=%d" n v
        | Compile.Dbool v -> Printf.sprintf "%s=%b" n v
        | Compile.Dints vs ->
            Printf.sprintf "%s=[%s]" n
              (String.concat ";" (Array.to_list (Array.map string_of_int vs)))
        | Compile.Dbools vs ->
            Printf.sprintf "%s=[%s]" n
              (String.concat ";" (Array.to_list (Array.map string_of_bool vs)))
      in
      Printf.eprintf "--- seed %d inputs: %s ---\n%s\n" seed
        (String.concat " " (List.map show values))
        src;
      raise exn
  done

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"millionaires agrees with >" ~count:200
      (pair (int_range 0 255) (int_range 0 255))
      (fun (a, b) ->
        let outputs =
          run_program (Programs.millionaires ~width:8)
            [ ("a", Compile.Dint a); ("b", Compile.Dint b) ]
        in
        get_bool outputs "alice_richer" = (a > b));
    Test.make ~name:"sum3 agrees with +" ~count:200
      (triple (int_range 0 255) (int_range 0 255) (int_range 0 255))
      (fun (x, y, z) ->
        let outputs =
          run_program (Programs.sum3 ~width:8)
            [ ("x0", Compile.Dint x); ("x1", Compile.Dint y); ("x2", Compile.Dint z) ]
        in
        get_int outputs "total" = x + y + z);
  ]

let () =
  Alcotest.run "sfdl"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "two-char punctuation" `Quick test_lexer_two_char_punct;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "bad char" `Quick test_lexer_bad_char;
        ] );
      ( "parser",
        [
          Alcotest.test_case "minimal program" `Quick test_parser_minimal;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "nested ternary" `Quick test_parser_ternary_nested;
          Alcotest.test_case "error position" `Quick test_parser_error_position;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "accepts valid" `Quick test_typecheck_accepts_valid;
          Alcotest.test_case "unknown variable" `Quick test_typecheck_rejects_unknown_var;
          Alcotest.test_case "assign to input" `Quick test_typecheck_rejects_assign_to_input;
          Alcotest.test_case "bool/int mix" `Quick test_typecheck_rejects_bool_int_mix;
          Alcotest.test_case "secret read index accepted" `Quick
            test_typecheck_accepts_secret_read_index;
          Alcotest.test_case "secret write index rejected" `Quick
            test_typecheck_rejects_secret_write_index;
          Alcotest.test_case "secret loop bound" `Quick test_typecheck_rejects_secret_loop_bound;
          Alcotest.test_case "unknown party" `Quick test_typecheck_rejects_unknown_party;
          Alcotest.test_case "duplicate declaration" `Quick test_typecheck_rejects_duplicate;
          Alcotest.test_case "non-bool condition" `Quick test_typecheck_rejects_nonbool_condition;
          Alcotest.test_case "no parties" `Quick test_typecheck_rejects_no_parties;
          Alcotest.test_case "whole-array assign" `Quick test_typecheck_rejects_whole_array_assign;
        ] );
      ( "compile",
        [
          Alcotest.test_case "arithmetic" `Quick test_compile_arithmetic;
          Alcotest.test_case "for accumulation" `Quick test_compile_for_accumulation;
          Alcotest.test_case "secret if muxes" `Quick test_compile_secret_if_mux;
          Alcotest.test_case "public if is static" `Quick test_compile_public_if_static;
          Alcotest.test_case "nested if state" `Quick test_compile_nested_if_state;
          Alcotest.test_case "const array indexing" `Quick test_compile_const_array_indexing;
          Alcotest.test_case "truncating assignment" `Quick test_compile_truncating_assignment;
          Alcotest.test_case "bool operations" `Quick test_compile_bool_ops;
          Alcotest.test_case "out-of-bounds index" `Quick test_compile_out_of_bounds_index;
          Alcotest.test_case "encode validation" `Quick test_encode_validation;
        ] );
      ( "differential",
        [
          Alcotest.test_case "interpreter matches compiler (canned)" `Quick
            test_interp_matches_compile_canned;
          Alcotest.test_case "edge semantics" `Quick test_interp_edge_semantics;
          Alcotest.test_case "secret index semantics" `Quick test_secret_index_semantics;
          Alcotest.test_case "fuzz: 150 random programs" `Quick test_fuzz_interp_vs_compile;
        ] );
      ( "programs",
        [
          Alcotest.test_case "millionaires" `Quick test_millionaires_program;
          Alcotest.test_case "sum3" `Quick test_sum3_program;
          Alcotest.test_case "vickrey auction" `Quick test_vickrey_program;
          Alcotest.test_case "count_below" `Quick test_count_below_program;
          Alcotest.test_case "count_below validation" `Quick test_count_below_validation;
        ] );
      ("properties", Qcheck_seed.to_alcotest ~seed:80199 qcheck_tests);
    ]
