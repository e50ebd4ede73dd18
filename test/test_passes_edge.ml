(** Edge-case tests for the optimization passes: the safety guards each
    pass must respect, exercised directly. *)

let lower_promoted src =
  let ast = Minic.Typecheck.parse_and_check src in
  let p = Lower.lower_program ast in
  Hashtbl.iter (fun _ fn -> Mem2reg.run fn) p.Ir.funcs;
  Cleanup.run_program p;
  p

let run_bin p ~entry ~input =
  let fns =
    Hashtbl.fold (fun _ fn acc -> fn :: acc) p.Ir.funcs []
    |> List.sort (fun (a : Ir.fn) b -> compare a.Ir.f_line b.Ir.f_line)
  in
  let mfuncs = List.map (fun fn -> Isel.translate_fn fn Mach.opts_o0) fns in
  let bin = Emit.emit { Mach.mfuncs; mglobals = p.Ir.prog_globals } in
  (Vm.run bin ~entry ~input Vm.default_opts).Vm.output

(* ------------------------------------------------------------------ *)

let test_inline_skips_recursive () =
  let src =
    "int rec_sum(int n) { if (n < 1) { return 0; } return n + rec_sum(n - 1); }\n\
     int main() { output(rec_sum(4)); return 0; }"
  in
  let p = lower_promoted src in
  ignore
    (Inline.run p
       ~policy:{ Inline.policy_off with small_threshold = 100; called_once = true }
       ~roots:[ "main" ]);
  Verify.check p;
  Alcotest.(check bool) "recursive callee kept" true
    (Hashtbl.mem p.Ir.funcs "rec_sum");
  Alcotest.(check (list int)) "semantics" [ 10 ] (run_bin p ~entry:"main" ~input:[])

let test_inline_caller_size_budget () =
  (* A caller at its size budget must stop inlining, not blow up. *)
  let src =
    "int h(int x) { return x * 2 + 1; }\n\
     int main() {\n\
     int s = 0;\n\
     s = s + h(1);\n\
     s = s + h(2);\n\
     s = s + h(3);\n\
     output(s);\n\
     return 0;\n\
     }"
  in
  let p = lower_promoted src in
  ignore
    (Inline.run p
       ~policy:
         { Inline.policy_off with small_threshold = 100; max_caller_size = 1 }
       ~roots:[ "main" ]);
  Verify.check p;
  Alcotest.(check (list int)) "still correct" [ 15 ]
    (run_bin p ~entry:"main" ~input:[])

let test_jump_threading_if_chain () =
  (* The dominating-condition case: op == 1 implies op != 2. *)
  let src =
    "int f(int op) {\n\
     int r = 0;\n\
     if (op == 1) {\n\
     r = r + 10;\n\
     }\n\
     if (op == 2) {\n\
     r = r + 20;\n\
     }\n\
     if (op == 3) {\n\
     r = r + 30;\n\
     }\n\
     output(r);\n\
     return r;\n\
     }\n\
     int main() { f(input()); return 0; }"
  in
  let p = lower_promoted src in
  let fn = Hashtbl.find p.Ir.funcs "f" in
  let threaded = Jump_threading.run fn in
  Verify.check p;
  Alcotest.(check bool) "if-chain threads" true (threaded > 0);
  List.iter
    (fun (op, expected) ->
      Alcotest.(check (list int))
        (Printf.sprintf "op=%d" op)
        [ expected ]
        (run_bin p ~entry:"main" ~input:[ op ]))
    [ (1, 10); (2, 20); (3, 30); (4, 0) ]

(* Hand-built IR for the invalidation-rule fixtures below: [hand_fn]
   makes a one-function program, [set] fills in a block. *)
let ins ik = { Ir.ik; line = None }

let hand_fn () =
  let fn = Ir.create_fn ~name:"f" ~line:1 ~params:[] in
  let p = { Ir.funcs = Hashtbl.create 1; prog_globals = [] } in
  Hashtbl.replace p.Ir.funcs "f" fn;
  (p, fn)

let set (b : Ir.block) ?(phis = []) instrs term =
  b.Ir.phis <- phis;
  b.Ir.instrs <- List.map ins instrs;
  b.Ir.term <- term

(* A thread's repair substitution rewrites the compare of a block that
   is threaded later: the first thread (P1 -> T, x = 1 < 2) gives T a
   repair phi x' and rewrites T's [c2 = x == 1] to [c2 = x' == 1]; only
   the rebuilt def index lets T's own threading see x' = 1 on the P1
   edge (P1 -> U). A stale index still reads [x == 1], decides nothing,
   and threads once. *)
let test_jump_threading_rebuilds_def_index () =
  let p, fn = hand_fn () in
  let e = Ir.block fn fn.Ir.entry in
  (* Layout order: E P1 P2 B T U V F. *)
  let p1 = Ir.new_block fn in
  let p2 = Ir.new_block fn in
  let b = Ir.new_block fn in
  let t = Ir.new_block fn in
  let u = Ir.new_block fn in
  let v = Ir.new_block fn in
  let f = Ir.new_block fn in
  let reg () = Ir.fresh_reg fn in
  let r = reg () and s = reg () and x = reg () in
  let cb = reg () and c2 = reg () in
  let lbl (blk : Ir.block) = blk.Ir.b_label in
  set e [ Ir.Input r; Ir.Input s ] (Ir.Cbr (Ir.Reg r, lbl p1, lbl p2));
  set p1 [] (Ir.Br (lbl b));
  set p2 [] (Ir.Br (lbl b));
  set b
    ~phis:[ { Ir.p_dst = x; p_args = [ (lbl p1, Ir.Imm 1); (lbl p2, Ir.Reg s) ] } ]
    [ Ir.Bin (Ir.Clt, cb, Ir.Reg x, Ir.Imm 2) ]
    (Ir.Cbr (Ir.Reg cb, lbl t, lbl f));
  set t
    [ Ir.Bin (Ir.Ceq, c2, Ir.Reg x, Ir.Imm 1) ]
    (Ir.Cbr (Ir.Reg c2, lbl u, lbl v));
  set u [ Ir.Output (Ir.Imm 100) ] (Ir.Ret None);
  set v [ Ir.Output (Ir.Imm 200) ] (Ir.Ret None);
  set f [ Ir.Output (Ir.Imm 300) ] (Ir.Ret None);
  Ir.recompute_preds fn;
  Verify.check p;
  Alcotest.(check int) "both edges threaded" 2 (Jump_threading.run fn);
  Verify.check p;
  List.iter
    (fun (input, expected) ->
      Alcotest.(check (list int))
        (String.concat "," (List.map string_of_int input))
        [ expected ]
        (run_bin p ~entry:"f" ~input))
    [ ([ 1; 0 ], 100); ([ 0; 1 ], 100); ([ 0; 0 ], 200); ([ 0; 3 ], 300) ]

(* [a * 3] computed in both arms of a diamond: the left arm's value is
   not available in its dominator-tree sibling, so the scoped table must
   drop it when the walk leaves the left arm. *)
let test_gvn_pops_sibling_scope () =
  let p, fn = hand_fn () in
  let e = Ir.block fn fn.Ir.entry in
  let l = Ir.new_block fn in
  let r = Ir.new_block fn in
  let j = Ir.new_block fn in
  let reg () = Ir.fresh_reg fn in
  let a = reg () and x = reg () and y = reg () in
  set e [ Ir.Input a ] (Ir.Cbr (Ir.Reg a, l.Ir.b_label, r.Ir.b_label));
  let arm (blk : Ir.block) d =
    set blk
      [ Ir.Bin (Ir.Mul, d, Ir.Reg a, Ir.Imm 3); Ir.Output (Ir.Reg d) ]
      (Ir.Br j.Ir.b_label)
  in
  arm l x;
  arm r y;
  set j [] (Ir.Ret None);
  Ir.recompute_preds fn;
  Alcotest.(check int) "nothing reused across siblings" 0 (Cse.run_global fn);
  Verify.check p;
  Alcotest.(check (list int)) "left" [ 6 ] (run_bin p ~entry:"f" ~input:[ 2 ]);
  Alcotest.(check (list int)) "right" [ 0 ] (run_bin p ~entry:"f" ~input:[ 0 ])

let test_rotate_nested_loops () =
  let src =
    "int f() {\n\
     int total = 0;\n\
     int i = 0;\n\
     while (i < 4) {\n\
     int j = 0;\n\
     while (j < 3) {\n\
     total = total + i * j;\n\
     j = j + 1;\n\
     }\n\
     i = i + 1;\n\
     }\n\
     output(total);\n\
     return total;\n\
     }"
  in
  let p = lower_promoted src in
  let fn = Hashtbl.find p.Ir.funcs "f" in
  let rotated = Loop_rotate.run fn in
  Verify.check p;
  Alcotest.(check bool) "both loops rotated" true (rotated >= 2);
  (* sum over i<4, j<3 of i*j = (0+1+2+3)*(0+1+2) = 18 *)
  Alcotest.(check (list int)) "nested semantics" [ 18 ]
    (run_bin p ~entry:"f" ~input:[])

let test_unroll_zero_and_one_iteration () =
  let src =
    "int f() {\n\
     int n = input();\n\
     int s = 0;\n\
     int i = 0;\n\
     while (i < n) {\n\
     s = s + 1;\n\
     i = i + 1;\n\
     }\n\
     output(s);\n\
     return 0;\n\
     }"
  in
  let p = lower_promoted src in
  Hashtbl.iter
    (fun _ fn ->
      ignore (Loop_rotate.run fn);
      Cleanup.run fn;
      ignore (Loop_unroll.run fn ~factor:4);
      Cleanup.run fn)
    p.Ir.funcs;
  Verify.check p;
  List.iter
    (fun n ->
      Alcotest.(check (list int))
        (Printf.sprintf "n=%d" n)
        [ max 0 n ]
        (run_bin p ~entry:"f" ~input:[ n ]))
    [ -3; 0; 1; 2; 5 ]

let test_ter_does_not_cross_store () =
  (* A load must not be forwarded past a store to the same base. *)
  let src =
    "int g;\n\
     int f() {\n\
     g = 1;\n\
     int t = g;\n\
     g = 2;\n\
     output(t + g);\n\
     return 0;\n\
     }"
  in
  let p = lower_promoted src in
  Ter.run_program p;
  Verify.check p;
  Alcotest.(check (list int)) "load kept before store" [ 3 ]
    (run_bin p ~entry:"f" ~input:[])

let test_licm_keeps_variant_loads () =
  (* A load whose base is stored inside the loop must not be hoisted. *)
  let src =
    "int a[4];\n\
     int f() {\n\
     int s = 0;\n\
     int i = 0;\n\
     while (i < 4) {\n\
     a[0] = i;\n\
     s = s + a[0];\n\
     i = i + 1;\n\
     }\n\
     output(s);\n\
     return 0;\n\
     }"
  in
  let p = lower_promoted src in
  Licm.run_program p;
  Verify.check p;
  Alcotest.(check (list int)) "variant load stays" [ 6 ]
    (run_bin p ~entry:"f" ~input:[])

let test_cse_respects_input_effects () =
  (* Two input() calls look identical but must both execute. *)
  let src = "int f() { output(input() + input()); return 0; }" in
  let p = lower_promoted src in
  Cse.run_local_program p;
  Cse.run_global_program p;
  Verify.check p;
  Alcotest.(check (list int)) "both inputs read" [ 30 ]
    (run_bin p ~entry:"f" ~input:[ 10; 20 ])

let test_gvn_does_not_merge_impure_calls () =
  let src =
    "int next() { return input(); }\n\
     int f() { output(next() + next()); return 0; }"
  in
  let p = lower_promoted src in
  Ipa_pure_const.run p;
  Cse.run_global_program ~pure_calls:(Ipa_pure_const.pure_predicate p) p;
  Verify.check p;
  Alcotest.(check (list int)) "impure calls kept" [ 7 ]
    (run_bin p ~entry:"f" ~input:[ 3; 4 ])

let test_gvn_merges_pure_calls () =
  let src =
    "int sq(int x) { return x * x; }\n\
     int f() { int a = input(); output(sq(a) + sq(a)); return 0; }"
  in
  let p = lower_promoted src in
  Ipa_pure_const.run p;
  let fn = Hashtbl.find p.Ir.funcs "f" in
  let removed =
    Cse.run_global ~pure_calls:(Ipa_pure_const.pure_predicate p) fn
  in
  Verify.check p;
  Alcotest.(check bool) "one pure call merged" true (removed >= 1);
  Alcotest.(check (list int)) "value" [ 50 ] (run_bin p ~entry:"f" ~input:[ 5 ])

let test_if_conversion_skips_effects () =
  (* Arms with stores must not be speculated. *)
  let src =
    "int g;\n\
     int f() {\n\
     int a = input();\n\
     if (a > 0) {\n\
     g = 1;\n\
     }\n\
     output(g);\n\
     return 0;\n\
     }"
  in
  let p = lower_promoted src in
  let fn = Hashtbl.find p.Ir.funcs "f" in
  ignore (If_conversion.run fn);
  Verify.check p;
  Alcotest.(check (list int)) "store not speculated (a<=0)" [ 0 ]
    (run_bin p ~entry:"f" ~input:[ 0 ]);
  let p2 = lower_promoted src in
  ignore (If_conversion.run (Hashtbl.find p2.Ir.funcs "f"));
  Alcotest.(check (list int)) "store when taken" [ 1 ]
    (run_bin p2 ~entry:"f" ~input:[ 1 ])

let test_slp_respects_dependences () =
  (* A chain a->b->c must not be packed into one vector op. *)
  let src =
    "int f() {\n\
     int x = input();\n\
     int a = x + 1;\n\
     int b = a + 2;\n\
     int c = b + 3;\n\
     output(c);\n\
     return 0;\n\
     }"
  in
  let p = lower_promoted src in
  let fn = Hashtbl.find p.Ir.funcs "f" in
  ignore (Slp.run fn);
  Verify.check p;
  Alcotest.(check (list int)) "chain value preserved" [ 16 ]
    (run_bin p ~entry:"f" ~input:[ 10 ])

let test_dse_keeps_observed_stores () =
  let src =
    "int g;\n\
     int probe() { return g; }\n\
     int f() {\n\
     g = 5;\n\
     output(probe());\n\
     g = 6;\n\
     output(probe());\n\
     return 0;\n\
     }"
  in
  let p = lower_promoted src in
  ignore (Dse.run p);
  Verify.check p;
  Alcotest.(check (list int)) "both stores observable" [ 5; 6 ]
    (run_bin p ~entry:"f" ~input:[])

let test_cleanup_dead_phi_kills_binding () =
  let src =
    "int f(int a) {\n\
     int ghost = 0;\n\
     if (a > 0) {\n\
     ghost = a;\n\
     }\n\
     return a;\n\
     }"
  in
  let p = lower_promoted src in
  Dce.run_program p;
  Cleanup.run_program p;
  Verify.check p;
  let fn = Hashtbl.find p.Ir.funcs "f" in
  let ghost_dead = ref false in
  Ir.iter_instrs fn (fun _ i ->
      match i.Ir.ik with
      | Ir.Dbg ({ name = "ghost"; _ }, None) -> ghost_dead := true
      | _ -> ());
  Alcotest.(check bool) "unused merged variable optimized out" true !ghost_dead

let test_sroa_then_downstream () =
  (* SROA output must survive the rest of the pipeline. *)
  let src =
    "int f() {\n\
     int a = input();\n\
     int t[2];\n\
     t[0] = a * 3;\n\
     t[1] = a * 5;\n\
     output(t[0] + t[1]);\n\
     return 0;\n\
     }"
  in
  let p = lower_promoted src in
  Sroa.run_program p;
  Instcombine.run_program p;
  Dce.run_program p;
  Verify.check p;
  Alcotest.(check (list int)) "scalarized pipeline" [ 16 ]
    (run_bin p ~entry:"f" ~input:[ 2 ])

(* ------------------------------------------------------------------ *)
(* Pipeline golden tests: the pass universes of Tables V / VI          *)

let test_gcc_pipeline_universe () =
  let names l =
    Debugtuner.Toolchain.pass_names
      (Debugtuner.Config.make Debugtuner.Config.Gcc l)
  in
  Alcotest.(check (list string)) "gcc Og pass universe"
    [
      "ipa-pure-const"; "guess-branch-probability"; "inline"; "tree-ccp";
      "tree-forwprop"; "tree-fre"; "dce"; "thread-jumps"; "tree-coalesce-vars";
      "ira-share-spill-slots"; "shrink-wrap"; "reorder-blocks";
    ]
    (names Debugtuner.Config.Og);
  Alcotest.(check int) "gcc O3 universe size" 30
    (List.length (names Debugtuner.Config.O3))

let test_clang_pipeline_universe () =
  let names l =
    Debugtuner.Toolchain.pass_names
      (Debugtuner.Config.make Debugtuner.Config.Clang l)
  in
  Alcotest.(check (list string)) "clang O1 pass universe"
    [
      "FunctionAttrs"; "SROA"; "EarlyCSE"; "SimplifyCFG"; "InstCombine";
      "Inliner"; "LoopRotate"; "LICM"; "LoopStrengthReduce"; "ADCE";
      "Machine code sinking"; "Control Flow Optimizer";
      "Branch Prob BB Placement"; "Machine Scheduler";
    ]
    (names Debugtuner.Config.O1)

let tests =
  [
    Alcotest.test_case "inline skips recursive" `Quick test_inline_skips_recursive;
    Alcotest.test_case "inline caller budget" `Quick test_inline_caller_size_budget;
    Alcotest.test_case "jump threading if-chain" `Quick test_jump_threading_if_chain;
    Alcotest.test_case "jump threading rebuilds def index" `Quick
      test_jump_threading_rebuilds_def_index;
    Alcotest.test_case "gvn pops sibling scope" `Quick test_gvn_pops_sibling_scope;
    Alcotest.test_case "rotate nested loops" `Quick test_rotate_nested_loops;
    Alcotest.test_case "unroll 0/1 iterations" `Quick
      test_unroll_zero_and_one_iteration;
    Alcotest.test_case "ter load/store order" `Quick test_ter_does_not_cross_store;
    Alcotest.test_case "licm variant loads" `Quick test_licm_keeps_variant_loads;
    Alcotest.test_case "cse input effects" `Quick test_cse_respects_input_effects;
    Alcotest.test_case "gvn impure calls" `Quick test_gvn_does_not_merge_impure_calls;
    Alcotest.test_case "gvn pure calls" `Quick test_gvn_merges_pure_calls;
    Alcotest.test_case "if-conversion effects" `Quick test_if_conversion_skips_effects;
    Alcotest.test_case "slp dependences" `Quick test_slp_respects_dependences;
    Alcotest.test_case "dse observed stores" `Quick test_dse_keeps_observed_stores;
    Alcotest.test_case "dead phi binding" `Quick test_cleanup_dead_phi_kills_binding;
    Alcotest.test_case "sroa downstream" `Quick test_sroa_then_downstream;
    Alcotest.test_case "gcc pipeline golden" `Quick test_gcc_pipeline_universe;
    Alcotest.test_case "clang pipeline golden" `Quick test_clang_pipeline_universe;
  ]
