(** The differential oracle as a tier-1 test: every suite program,
    compiled at O0-O3 under both pipelines with the pass-boundary
    sanitizer on, must produce exactly the interpreter's output on the
    VM. One alcotest case per suite program so a miscompile names its
    program in the failure line. *)

let check_clean (p : Suite_types.sprogram) () =
  let failures, (runs, _skipped) = Diff_oracle.check_program p in
  Alcotest.(check bool)
    "ran the matrix" true
    (runs >= List.length (Diff_oracle.configs ()));
  match failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d divergence(s); first: %s" (List.length failures)
        (Diff_oracle.failure_to_string f)

let test_synth_clean () =
  (* A couple of synthetic programs through the same matrix, with
     shrinking armed — the path `debugtuner_cli check --fuzz` takes. *)
  let r = Diff_oracle.fuzz ~count:2 ~seed:101 () in
  Alcotest.(check bool) "ran" true (r.Diff_oracle.r_runs > 0);
  if not (Diff_oracle.clean r) then
    Alcotest.failf "synthetic divergence:\n%s" (Diff_oracle.report_to_string r)

let test_report_shape () =
  let r = Diff_oracle.fuzz ~count:1 ~seed:42 () in
  Alcotest.(check int) "programs" 1 r.Diff_oracle.r_programs;
  Alcotest.(check int) "configs" 8 r.Diff_oracle.r_configs;
  Alcotest.(check bool) "summary line" true
    (String.length (Diff_oracle.report_to_string r) > 0)

(* The ddmin predicate reads a front-end rejection as "no longer
   fails"; it does not swallow other exceptions. *)
let test_unparsable_candidate () =
  let cfg = Debugtuner.Config.(make Gcc O2) in
  List.iter
    (fun (what, src) ->
      Alcotest.(check bool) what false
        (Diff_oracle.source_still_fails src cfg ~input:[]))
    [
      ("lexer error", "int main() { return 1 $ 2; }");
      ("parse error", "int main( {");
      ("type error", "int main() { return undefined_name; }");
    ]

let tests =
  List.map
    (fun (p : Suite_types.sprogram) ->
      Alcotest.test_case
        (Printf.sprintf "oracle: %s" p.Suite_types.p_name)
        `Slow (check_clean p))
    Programs.all
  @ [
      Alcotest.test_case "oracle: synthetic programs" `Slow test_synth_clean;
      Alcotest.test_case "report shape" `Quick test_report_shape;
      Alcotest.test_case "unparsable shrink candidate" `Quick
        test_unparsable_candidate;
    ]
