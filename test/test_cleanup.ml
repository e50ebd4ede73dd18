(** Exactness of [Cleanup.is_clean], the scan that lets [Cleanup.run]
    skip its rewrites. Whenever the scan answers "clean", the full
    rewrite sequence must leave the function structurally unchanged,
    [preds] included: checked at every pass boundary of real pipelines,
    and, the other way round, each clause of the scan must flag a
    hand-built function that only that clause's rewrite would change. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

(* Everything [Cleanup.rewrite] can change, blocks in label order (the
   table's bucket order is not structure). *)
let shape (fn : Ir.fn) =
  let blocks =
    Hashtbl.fold (fun l b acc -> (l, b) :: acc) fn.Ir.blocks []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (fn.Ir.entry, fn.Ir.layout, fn.Ir.next_reg, fn.Ir.next_label, blocks)

(* [Some changed] when the scan says clean ([changed]: the full rewrite
   altered a deep copy), [None] when it says dirty. *)
let rewrite_if_clean (fn : Ir.fn) =
  if Cleanup.is_clean fn then begin
    let copy = Ir.Snapshot.copy_fn fn in
    Cleanup.rewrite copy;
    Some (shape copy <> shape fn)
  end
  else None

(* ------------------------------------------------------------------ *)
(* Pipeline states                                                     *)

let test_exact_on_pipelines () =
  let clean = ref 0 and dirty = ref 0 in
  let check_boundary ~what prog =
    Ir.iter_funcs
      (fun (fn : Ir.fn) ->
        match rewrite_if_clean fn with
        | None -> incr dirty
        | Some changed ->
            incr clean;
            if changed then
              Alcotest.failf "%s, function %s: scan said clean, rewrite changed it"
                what fn.Ir.f_name)
      prog
  in
  List.iter
    (fun seed ->
      let ast = Minic.Typecheck.parse_and_check (Synth.generate ~seed) in
      List.iter
        (fun config ->
          let what pass =
            Printf.sprintf "seed %d, %s, after %s" seed (C.fingerprint config) pass
          in
          let prog = Lower.lower_program ast in
          let env =
            {
              T.prog;
              roots = [ "main" ];
              pure = (fun _ -> false);
              profile = None;
              enabled = C.enabled config;
            }
          in
          Ir.iter_funcs Mem2reg.run prog;
          check_boundary ~what:(what "mem2reg") prog;
          Cleanup.run_program prog;
          List.iter
            (function
              | T.Ir_pass (name, f) when C.enabled config name ->
                  f env;
                  check_boundary ~what:(what name) prog;
                  Cleanup.run_program prog
              | T.Ir_pass _ | T.Backend_flag _ -> ())
            (T.pipeline config))
        [
          C.make C.Gcc C.O2; C.make C.Gcc C.O3; C.make C.Clang C.O2;
          C.make C.Clang C.O3;
        ])
    [ 1; 2; 3; 4 ];
  (* Both answers must actually occur, or the check above proves little. *)
  Alcotest.(check bool) "some boundaries clean" true (!clean > 0);
  Alcotest.(check bool) "some boundaries dirty" true (!dirty > 0)

(* ------------------------------------------------------------------ *)
(* One fixture per clause                                              *)

let var name = { Ir.origin = "f"; name }
let ins ik = { Ir.ik; line = Some 1 }

(* [blocks]: (label, phis, instrs, term, stored preds), entry first, in
   layout order; [table_only] blocks go into the table but not the
   layout. *)
let fixture ?(table_only = []) ~next_reg blocks =
  let fn = Ir.create_fn ~name:"f" ~line:1 ~params:[] in
  Hashtbl.reset fn.Ir.blocks;
  let add (l, phis, instrs, term, preds) =
    Hashtbl.replace fn.Ir.blocks l
      {
        Ir.b_label = l;
        phis = List.map (fun (p_dst, p_args) -> { Ir.p_dst; p_args }) phis;
        instrs = List.map ins instrs;
        term;
        term_line = Some 1;
        preds;
        freq = 1.0;
        prob = 0.5;
      }
  in
  List.iter add blocks;
  List.iter add table_only;
  let labels = List.map (fun (l, _, _, _, _) -> l) (blocks @ table_only) in
  fn.Ir.entry <- 0;
  fn.Ir.layout <- List.map (fun (l, _, _, _, _) -> l) blocks;
  fn.Ir.next_label <- 1 + List.fold_left max 0 labels;
  fn.Ir.next_reg <- next_reg;
  fn

(* The clean base: a diamond L0 -> {L1, L2} -> L3 joining in a phi.
     L0: r0 = input; cbr r0 L1 L2
     L1: output r0; dbg x = r0; br L3
     L2: output 7; br L3
     L3: r1 = phi [L1: 1; L2: 2]; output r1; ret *)
let l0 = (0, [], [ Ir.Input 0 ], Ir.Cbr (Ir.Reg 0, 1, 2), [])

let l1 =
  ( 1,
    [],
    [ Ir.Output (Ir.Reg 0); Ir.Dbg (var "x", Some (Ir.Reg 0)) ],
    Ir.Br 3,
    [ 0 ] )

let l2 = (2, [], [ Ir.Output (Ir.Imm 7) ], Ir.Br 3, [ 0 ])

let l3 ?(phis = [ (1, [ (1, Ir.Imm 1); (2, Ir.Imm 2) ]) ]) ?(preds = [ 1; 2 ])
    () =
  (3, phis, [ Ir.Output (Ir.Reg 1) ], Ir.Ret None, preds)

let base () = fixture ~next_reg:2 [ l0; l1; l2; l3 () ]

let dirty_fixtures () =
  [
    ( "constant cbr",
      fixture ~next_reg:2
        [ (0, [], [ Ir.Input 0 ], Ir.Cbr (Ir.Imm 1, 1, 2), []); l1; l2; l3 () ]
    );
    ( "equal-target cbr",
      fixture ~next_reg:1
        [
          (0, [], [ Ir.Input 0 ], Ir.Cbr (Ir.Reg 0, 1, 1), []);
          (1, [], [ Ir.Output (Ir.Reg 0) ], Ir.Ret None, [ 0 ]);
        ] );
    ( "unreachable block",
      fixture ~next_reg:2
        [ l0; l1; l2; l3 (); (4, [], [ Ir.Output (Ir.Imm 3) ], Ir.Ret None, []) ]
    );
    ( "block missing from the layout",
      fixture ~next_reg:2 [ l0; l1; l2; l3 () ]
        ~table_only:[ (4, [], [ Ir.Output (Ir.Imm 3) ], Ir.Ret None, []) ] );
    ("preds out of order", fixture ~next_reg:2 [ l0; l1; l2; l3 ~preds:[ 2; 1 ] () ]);
    ("stale pred", fixture ~next_reg:2 [ l0; l1; l2; l3 ~preds:[ 1; 2; 0 ] () ]);
    ( "phi argument from a non-predecessor",
      fixture ~next_reg:2
        [
          l0; l1; l2;
          l3 ~phis:[ (1, [ (1, Ir.Imm 1); (2, Ir.Imm 2); (0, Ir.Imm 3) ]) ] ();
        ] );
    ( "trivial phi",
      fixture ~next_reg:2
        [ l0; l1; l2; l3 ~phis:[ (1, [ (1, Ir.Reg 1); (2, Ir.Imm 2) ]) ] () ] );
    ( "removable forwarder",
      fixture ~next_reg:2
        [
          l0; l1;
          (2, [], [ Ir.Dbg (var "y", Some (Ir.Imm 7)) ], Ir.Br 3, [ 0 ]);
          l3 ();
        ] );
    ( "mergeable pair",
      fixture ~next_reg:2
        [
          l0;
          (1, [], [ Ir.Output (Ir.Reg 0) ], Ir.Br 4, [ 0 ]);
          l2;
          l3 ~phis:[ (1, [ (4, Ir.Imm 1); (2, Ir.Imm 2) ]) ] ~preds:[ 2; 4 ] ();
          (4, [], [ Ir.Output (Ir.Imm 5) ], Ir.Br 3, [ 1 ]);
        ] );
    ( "dead phi",
      fixture ~next_reg:3
        [
          l0; l1; l2;
          l3
            ~phis:
              [
                (1, [ (1, Ir.Imm 1); (2, Ir.Imm 2) ]);
                (2, [ (1, Ir.Imm 5); (2, Ir.Imm 6) ]);
              ]
            ();
        ] );
    ( "debug binding of an undefined register",
      fixture ~next_reg:6
        [
          l0;
          ( 1,
            [],
            [ Ir.Output (Ir.Reg 0); Ir.Dbg (var "x", Some (Ir.Reg 5)) ],
            Ir.Br 3,
            [ 0 ] );
          l2;
          l3 ();
        ] );
  ]

let test_base_is_clean () =
  Alcotest.(check (option bool)) "clean, and rewrite changes nothing"
    (Some false)
    (rewrite_if_clean (base ()))

let test_each_clause_flags () =
  List.iter
    (fun (name, fn) ->
      (* The fixture must really need a rewrite... *)
      let copy = Ir.Snapshot.copy_fn fn in
      Cleanup.rewrite copy;
      Alcotest.(check bool) (name ^ ": rewrite changes it") true
        (shape copy <> shape fn);
      (* ...and the scan must say so. *)
      Alcotest.(check bool) (name ^ ": scan says dirty") false
        (Cleanup.is_clean fn))
    (dirty_fixtures ())

let tests =
  [
    Alcotest.test_case "scan exact at pipeline boundaries" `Quick
      test_exact_on_pipelines;
    Alcotest.test_case "diamond fixture is clean" `Quick test_base_is_clean;
    Alcotest.test_case "each clause flags its fixture" `Quick
      test_each_clause_flags;
  ]
