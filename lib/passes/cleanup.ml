(** CFG cleanup, run between passes in both pipelines (not toggleable —
    every production compiler interleaves equivalent canonicalization).

    Kept deliberately debug-friendly: merging a straight-line pair keeps
    every line; a trivial phi forwards its operand everywhere including
    debug bindings. The only loss here is dropping the debug bindings of
    an empty forwarding block that cannot be moved into a multi-pred
    successor — rare and tiny. *)

let trivial_phis (fn : Ir.fn) =
  let changed = ref true in
  while !changed do
    changed := false;
    let map = Hashtbl.create 8 in
    Ir.iter_blocks fn (fun b ->
        b.Ir.phis <-
          List.filter
            (fun (p : Ir.phi) ->
              let distinct =
                List.sort_uniq compare
                  (List.filter (fun o -> o <> Ir.Reg p.Ir.p_dst)
                     (List.map snd p.Ir.p_args))
              in
              match distinct with
              | [ one ] ->
                  Hashtbl.replace map p.Ir.p_dst one;
                  changed := true;
                  false
              | _ -> true)
            b.Ir.phis);
    if Hashtbl.length map > 0 then Putil.replace_uses fn map
  done

(* Merge [b] with its unique successor [s] when [s]'s unique predecessor
   is [b] and [s] has no phis. *)
let merge_pairs (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let changed = ref true in
  while !changed do
    changed := false;
    let labels = fn.Ir.layout in
    List.iter
      (fun l ->
        match Hashtbl.find_opt fn.Ir.blocks l with
        | None -> ()
        | Some b -> (
            match b.Ir.term with
            | Ir.Br s when s <> l -> (
                match Hashtbl.find_opt fn.Ir.blocks s with
                | Some sb
                  when sb.Ir.preds = [ l ] && sb.Ir.phis = [] && s <> fn.Ir.entry
                  ->
                    b.Ir.instrs <- b.Ir.instrs @ sb.Ir.instrs;
                    b.Ir.term <- sb.Ir.term;
                    b.Ir.term_line <- sb.Ir.term_line;
                    Hashtbl.remove fn.Ir.blocks s;
                    fn.Ir.layout <- List.filter (fun x -> x <> s) fn.Ir.layout;
                    (* Successors' phis referring to s now come from b. *)
                    List.iter
                      (fun succ ->
                        match Hashtbl.find_opt fn.Ir.blocks succ with
                        | Some tb ->
                            List.iter
                              (fun (p : Ir.phi) ->
                                p.Ir.p_args <-
                                  List.map
                                    (fun (pl, o) ->
                                      if pl = s then (l, o) else (pl, o))
                                    p.Ir.p_args)
                              tb.Ir.phis
                        | None -> ())
                      (Ir.succs b.Ir.term);
                    Ir.recompute_preds fn;
                    changed := true
                | _ -> ())
            | _ -> ()))
      labels
  done

(* Remove blocks that only forward ([Br t], no instructions except debug
   bindings, no phis), rerouting predecessors straight to the target. *)
let remove_forwarders (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        match Hashtbl.find_opt fn.Ir.blocks l with
        | None -> ()
        | Some b -> (
            let only_dbg =
              List.for_all
                (fun (i : Ir.instr) ->
                  match i.Ir.ik with Ir.Dbg _ -> true | _ -> false)
                b.Ir.instrs
            in
            match b.Ir.term with
            | Ir.Br t
              when only_dbg && b.Ir.phis = [] && t <> l && l <> fn.Ir.entry ->
                let tb = Ir.block fn t in
                (* If the target has phis, rerouting is only safe when
                   each pred gets the value the forwarder would have
                   passed — that value is the forwarder's own incoming
                   one, identical for every pred, so it is safe; but the
                   target must not already have an edge from a pred
                   (duplicate phi entries). *)
                let pred_conflict =
                  List.exists (fun p -> List.mem p tb.Ir.preds) b.Ir.preds
                  && tb.Ir.phis <> []
                in
                if not pred_conflict then begin
                  (* Move the debug bindings into the target when it has a
                     single predecessor (us); otherwise they are dropped —
                     a small real loss. *)
                  (if tb.Ir.preds = [ l ] then
                     tb.Ir.instrs <-
                       List.filter
                         (fun (i : Ir.instr) ->
                           match i.Ir.ik with Ir.Dbg _ -> true | _ -> false)
                         b.Ir.instrs
                       @ tb.Ir.instrs);
                  List.iter
                    (fun p ->
                      let pb = Ir.block fn p in
                      let redirect x = if x = l then t else x in
                      pb.Ir.term <-
                        (match pb.Ir.term with
                        | Ir.Br x -> Ir.Br (redirect x)
                        | Ir.Cbr (c, x, y) -> Ir.Cbr (c, redirect x, redirect y)
                        | Ir.Ret _ as r -> r))
                    b.Ir.preds;
                  (* Target phis: replace the edge from the forwarder with
                     edges from each pred carrying the same value. *)
                  List.iter
                    (fun (p : Ir.phi) ->
                      match List.assoc_opt l p.Ir.p_args with
                      | Some v ->
                          p.Ir.p_args <-
                            List.filter (fun (pl, _) -> pl <> l) p.Ir.p_args
                            @ List.map (fun pred -> (pred, v)) b.Ir.preds
                      | None -> ())
                    tb.Ir.phis;
                  Hashtbl.remove fn.Ir.blocks l;
                  fn.Ir.layout <- List.filter (fun x -> x <> l) fn.Ir.layout;
                  Ir.recompute_preds fn;
                  changed := true
                end
            | _ -> ()))
      fn.Ir.layout
  done

(** Fold conditional branches with constant or equal-target conditions. *)
let fold_branches (fn : Ir.fn) =
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with
      | Ir.Cbr (Ir.Imm c, l1, l2) ->
          let dead = if c <> 0 then l2 else l1 in
          let live = if c <> 0 then l1 else l2 in
          (* Remove the dead edge's phi entries. *)
          (match Hashtbl.find_opt fn.Ir.blocks dead with
          | Some db when dead <> live ->
              List.iter
                (fun (p : Ir.phi) ->
                  p.Ir.p_args <-
                    List.filter (fun (pl, _) -> pl <> b.Ir.b_label) p.Ir.p_args)
                db.Ir.phis
          | _ -> ());
          b.Ir.term <- Ir.Br live
      | Ir.Cbr (c, l1, l2) when l1 = l2 ->
          ignore c;
          b.Ir.term <- Ir.Br l1
      | _ -> ())

(* Phis never consumed by real code are structural residue of SSA
   construction and pass rewrites; every compiler sweeps them outside
   any toggleable pass. Debug bindings referencing them go optimized-out
   (this loss belongs to whichever pass orphaned the phi). *)
let dead_phis (fn : Ir.fn) =
  let changed = ref true in
  let killed = Hashtbl.create 8 in
  while !changed do
    changed := false;
    let counts = Putil.use_counts fn in
    Ir.iter_blocks fn (fun b ->
        b.Ir.phis <-
          List.filter
            (fun (p : Ir.phi) ->
              if Putil.use_count counts p.Ir.p_dst > 0 then true
              else begin
                Hashtbl.replace killed p.Ir.p_dst ();
                changed := true;
                false
              end)
            b.Ir.phis)
  done;
  Putil.kill_bindings fn killed

(* Debug bindings whose register no longer has a definition anywhere in
   the function — its block was pruned as unreachable, or a pass deleted
   the value without rewriting debug uses — go optimized-out, the same
   way LLVM turns the dbg.value users of a deleted instruction into
   undef. Real uses of such registers would be a pass bug (the verifier
   rejects them); debug uses are the supported, lossy case. *)
let orphaned_dbg (fn : Ir.fn) =
  let defined = Hashtbl.create 64 in
  List.iter (fun (r, _) -> Hashtbl.replace defined r ()) fn.Ir.f_params;
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun (p : Ir.phi) -> Hashtbl.replace defined p.Ir.p_dst ())
        b.Ir.phis;
      List.iter
        (fun (i : Ir.instr) ->
          List.iter
            (fun d -> Hashtbl.replace defined d ())
            (Ir.def_of_ikind i.Ir.ik))
        b.Ir.instrs);
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.ik with
          | Ir.Dbg (v, Some o)
            when List.exists
                   (fun r -> not (Hashtbl.mem defined r))
                   (Ir.operand_uses o) ->
              i.Ir.ik <- Ir.Dbg (v, None)
          | _ -> ())
        b.Ir.instrs)

let rewrite (fn : Ir.fn) =
  fold_branches fn;
  Ir.prune_unreachable fn;
  trivial_phis fn;
  remove_forwarders fn;
  merge_pairs fn;
  trivial_phis fn;
  dead_phis fn;
  Ir.prune_unreachable fn;
  orphaned_dbg fn

(* ------------------------------------------------------------------ *)
(* The "nothing to do" scan                                            *)

exception Dirty

let same_operand a b =
  match (a, b) with
  | Ir.Reg x, Ir.Reg y | Ir.Imm x, Ir.Imm y -> x = y
  | _ -> false

(* Does [trivial_phis] remove [p]: exactly one distinct operand other
   than the phi's own register? *)
let trivial (p : Ir.phi) =
  let self = Ir.Reg p.Ir.p_dst in
  let rec go seen = function
    | [] -> Option.is_some seen
    | (_, o) :: rest -> (
        if same_operand o self then go seen rest
        else
          match seen with
          | None -> go (Some o) rest
          | Some s -> same_operand o s && go seen rest)
  in
  go None p.Ir.p_args

(* Would [remove_forwarders] remove [b]? The same shape test and
   [pred_conflict] rule, on the stored [preds]. *)
let removable_forwarder (fn : Ir.fn) l (b : Ir.block) t (tb : Ir.block) =
  l <> fn.Ir.entry && t <> l && b.Ir.phis = []
  && List.for_all
       (fun (i : Ir.instr) -> match i.Ir.ik with Ir.Dbg _ -> true | _ -> false)
       b.Ir.instrs
  && not
       (tb.Ir.phis <> []
       && List.exists (fun p -> List.mem p tb.Ir.preds) b.Ir.preds)

(* "Clean" means each step of [rewrite], in turn, is a no-op: no
   constant or equal-target [Cbr]; every block reachable and the layout
   exactly the block set, each label once; stored [preds] equal to the
   recomputed ones, in order; every phi argument's label a predecessor;
   no trivial phi, removable forwarder or mergeable [Br] pair; every phi
   used by real code; no debug binding naming an undefined register.
   Any index out of range, or any label that is not a block, answers
   "dirty" and leaves the verdict (or the exception) to [rewrite]. *)
let is_clean (fn : Ir.fn) =
  let nl = max fn.Ir.next_label 0 and nr = max fn.Ir.next_reg 0 in
  (* Label marks: 1 in the layout, 2 reached from entry. *)
  let lmark = Bytes.make nl '\000' in
  let lget l = if l < 0 || l >= nl then 0 else Char.code (Bytes.get lmark l) in
  let lset l bit =
    Bytes.set lmark l (Char.unsafe_chr (Char.code (Bytes.get lmark l) lor bit))
  in
  (* Register marks: 1 defined, 2 used by real code, 4 named by a debug
     binding, 8 a phi destination. *)
  let rmark = Bytes.make nr '\000' in
  let rset r bit =
    if r < 0 || r >= nr then raise Dirty;
    Bytes.set rmark r (Char.unsafe_chr (Char.code (Bytes.get rmark r) lor bit))
  in
  let def r = rset r 1 and use_reg r = rset r 2 in
  let use = function Ir.Reg r -> use_reg r | Ir.Imm _ -> () in
  try
    let first =
      match fn.Ir.layout with
      | l :: _ -> (
          match Hashtbl.find_opt fn.Ir.blocks l with
          | Some b -> b
          | None -> raise Dirty)
      | [] -> raise Dirty
    in
    (* [blk] and [cursor] are read only at labels marked in the layout;
       [first] is filler. [cursor.(s)] walks [s]'s stored preds while
       the recomputation order is replayed below. *)
    let blk = Array.make nl first in
    let cursor = Array.make nl [] in
    let nblocks = ref 0 in
    List.iter
      (fun l ->
        if l < 0 || l >= nl || lget l land 1 <> 0 then raise Dirty;
        match Hashtbl.find_opt fn.Ir.blocks l with
        | None -> raise Dirty
        | Some b ->
            lset l 1;
            blk.(l) <- b;
            cursor.(l) <- b.Ir.preds;
            incr nblocks)
      fn.Ir.layout;
    if !nblocks <> Hashtbl.length fn.Ir.blocks then raise Dirty;
    (* Reachability from entry, checking every successor is a block. *)
    let stack = Array.make nl 0 in
    let top = ref 0 and reached = ref 0 in
    let push l =
      let m = lget l in
      if m land 1 = 0 then raise Dirty;
      if m land 2 = 0 then begin
        lset l 2;
        incr reached;
        stack.(!top) <- l;
        incr top
      end
    in
    push fn.Ir.entry;
    while !top > 0 do
      decr top;
      match blk.(stack.(!top)).Ir.term with
      | Ir.Ret _ -> ()
      | Ir.Br t -> push t
      | Ir.Cbr (_, l1, l2) ->
          push l1;
          push l2
    done;
    if !reached <> !nblocks then raise Dirty;
    (* Replay [Ir.recompute_preds]: edge [l -> s] must be next in
       [s]'s stored preds. *)
    let edge l s =
      match cursor.(s) with
      | p :: rest when p = l -> cursor.(s) <- rest
      | _ -> raise Dirty
    in
    List.iter (fun (r, _) -> def r) fn.Ir.f_params;
    List.iter
      (fun l ->
        let b = blk.(l) in
        (match b.Ir.term with
        | Ir.Cbr (Ir.Imm _, _, _) -> raise Dirty
        | Ir.Cbr (c, l1, l2) ->
            if l1 = l2 then raise Dirty;
            use c;
            edge l l1;
            edge l l2
        | Ir.Br t ->
            edge l t;
            let tb = blk.(t) in
            let mergeable =
              t <> l && t <> fn.Ir.entry && tb.Ir.phis = []
              && match tb.Ir.preds with [ p ] -> p = l | _ -> false
            in
            if mergeable || removable_forwarder fn l b t tb then raise Dirty
        | Ir.Ret o -> Option.iter use o);
        List.iter
          (fun (p : Ir.phi) ->
            rset p.Ir.p_dst (8 lor 1);
            if trivial p then raise Dirty;
            List.iter
              (fun (pl, o) ->
                if not (List.mem pl b.Ir.preds) then raise Dirty;
                use o)
              p.Ir.p_args)
          b.Ir.phis;
        List.iter
          (fun (i : Ir.instr) ->
            match i.Ir.ik with
            | Ir.Dbg (_, Some (Ir.Reg r)) -> rset r 4
            | ik ->
                List.iter def (Ir.def_of_ikind ik);
                List.iter use_reg (Ir.real_uses_of_ikind ik))
          b.Ir.instrs)
      fn.Ir.layout;
    List.iter (fun l -> if cursor.(l) <> [] then raise Dirty) fn.Ir.layout;
    for r = 0 to nr - 1 do
      let m = Char.code (Bytes.get rmark r) in
      if (m land 4 <> 0 && m land 1 = 0) || (m land 8 <> 0 && m land 2 = 0) then
        raise Dirty
    done;
    true
  with Dirty -> false

(* Most calls find nothing to do, so the scan answers that first. *)
let run (fn : Ir.fn) = if not (is_clean fn) then rewrite fn

let run_program (p : Ir.program) = Ir.iter_funcs run p
