(* The shared JSON writer and the exports built on it, read back with
   the test suite's own parser. *)

module J = Sim_artifact.Json
module T = Test_trace

(* What [v] must parse back to: ints and fixed-precision floats both
   read as numbers, the latter at their printed precision. *)
let rec expected (v : J.t) : T.json =
  match v with
  | J.Null -> T.J_null
  | J.Bool b -> T.J_bool b
  | J.Int n -> T.J_num (float_of_int n)
  | J.Float (d, x) -> T.J_num (float_of_string (Printf.sprintf "%.*f" d x))
  | J.String s -> T.J_str s
  | J.List l -> T.J_arr (List.map expected l)
  | J.Object kvs -> T.J_obj (List.map (fun (k, v) -> (k, expected v)) kvs)

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_round_trip () =
  let v =
    J.Object
      [
        ("tricky \"key\"", J.String "quote \" backslash \\ line\n ctl \x01");
        ("empty_list", J.List []);
        ("empty_object", J.Object []);
        ( "nested",
          J.Object
            [
              ( "inner",
                J.Object
                  [
                    ( "row",
                      J.List [ J.Int (-3); J.Float (2, 615.184); J.Null ] );
                    ("flag", J.Bool false);
                  ] );
            ] );
        (* wider than a line: printed one member per line *)
        ( "long",
          J.List (List.init 40 (fun i -> J.Object [ ("i", J.Int i) ])) );
      ]
  in
  let s = J.to_string v in
  Alcotest.(check bool) "control character printed as \\u0001" true
    (contains s "\\u0001");
  Alcotest.(check bool) "parses back equal" true (T.parse_json s = expected v);
  Alcotest.(check string) "non-finite floats print as null" "[null, null]"
    (J.to_string
       (J.List [ J.Float (2, Float.nan); J.Float (1, Float.infinity) ]))

let field k = function
  | T.J_obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> Alcotest.failf "missing field %S" k)
  | _ -> Alcotest.failf "field %S of a non-object" k

let test_provenance_json () =
  let module D = Harness.Divergence in
  let module P = Sim_obs.Provenance in
  let p = P.create () in
  let src =
    "long f2() { return syscall(39); }\n\
     long f1() { return f2(); }\n\
     long main() { long i = 0; while (i < 6) { f1(); i = i + 1; } return 0; }\n"
  in
  let _ = D.run_audited ~prov:p D.Lazypoline_m (D.Prog { src; jit = false }) in
  let doc = T.parse_json (P.to_json p) in
  let hot =
    match field "sites" doc with
    | T.J_arr (s :: _) -> s
    | _ -> Alcotest.fail "no sites"
  in
  (match field "sym" hot with
  | T.J_str sym ->
      Alcotest.(check bool) "hottest site symbolized" true
        (String.length sym >= 5 && String.sub sym 0 5 = "fn_f2")
  | _ -> Alcotest.fail "sym is not a string");
  (match field "pc" hot with
  | T.J_num pc -> Alcotest.(check bool) "pc is an address" true (pc > 0.0)
  | _ -> Alcotest.fail "pc is not a number");
  Alcotest.(check bool) "hottest site rewritten lazily" true
    (field "kind" (field "rewrite" hot) = T.J_str "lazy");
  match field "success_rate" (field "unwind" doc) with
  | T.J_num r -> Alcotest.(check bool) "unwind success rate" true (r >= 0.8)
  | _ -> Alcotest.fail "success_rate is not a number"

let test_metrics_json () =
  let module M = Sim_metrics.Metrics in
  let r = M.create () in
  M.counter r ~labels:[ ("mech", "lazy\"poline") ] "c_total" := 9;
  M.probe r "p_total" (fun () -> 4);
  let h = M.histogram r "lat_cycles" in
  List.iter (M.observe h) [ 3; 300; 300 ];
  match T.parse_json (M.to_json r) with
  | T.J_arr rows ->
      Alcotest.(check int) "one row per metric" 3 (List.length rows);
      let row name =
        List.find (fun m -> field "name" m = T.J_str name) rows
      in
      let labels = field "labels" (row "c_total") in
      Alcotest.(check bool) "escaped label reads back" true
        (field "mech" labels = T.J_str "lazy\"poline");
      Alcotest.(check bool) "probe value" true
        (field "value" (row "p_total") = T.J_num 4.0);
      let hist = row "lat_cycles" in
      Alcotest.(check bool) "histogram count" true
        (field "count" hist = T.J_num 3.0);
      Alcotest.(check bool) "+Inf bucket holds every observation" true
        (match field "buckets" hist with
        | T.J_arr bs ->
            List.nth bs (List.length bs - 1)
            = T.J_arr [ T.J_str "+Inf"; T.J_num 3.0 ]
        | _ -> false)
  | _ -> Alcotest.fail "metrics JSON is not an array"

let tests =
  [
    Alcotest.test_case "writer: round trip" `Quick test_round_trip;
    Alcotest.test_case "provenance: to_json parses" `Quick
      test_provenance_json;
    Alcotest.test_case "metrics: to_json parses" `Quick test_metrics_json;
  ]
