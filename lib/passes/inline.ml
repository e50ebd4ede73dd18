(** The inliner.

    Inlined instructions keep their source lines and the callee's
    variables are re-announced with debug bindings at the inlined entry
    (our [DW_TAG_inlined_subroutine] analog), so inlining by itself is
    nearly debug-neutral — the heavy loss the paper attributes to the
    inliner arises downstream, when CSE/DCE/merging chew through the
    freshly exposed code. That indirect dynamic is reproduced here
    mechanically simply by running the inliner early in both pipelines.

    Policies mirror the toggles in the paper's tables: gcc's
    [inline-fncs-called-once] (inline and delete single-callsite
    functions), [inline-small-functions], [inline-functions] (larger,
    hotness-aware, O2+), the [inline] master switch, and clang's
    [Inliner] with a per-level threshold. *)

type policy = {
  called_once : bool;
  small_threshold : int;  (** 0 disables *)
  functions_threshold : int;  (** 0 disables; doubled for hot callsites *)
  max_caller_size : int;
  rounds : int;
}

let policy_off =
  {
    called_once = false;
    small_threshold = 0;
    functions_threshold = 0;
    max_caller_size = 500;
    rounds = 3;
  }

(* ------------------------------------------------------------------ *)

let count_callsites (p : Ir.program) =
  let counts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ fn ->
      Ir.iter_instrs fn (fun _ i ->
          match i.Ir.ik with
          | Ir.Call (_, f, _) ->
              Hashtbl.replace counts f
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
          | _ -> ()))
    p.Ir.funcs;
  counts

let is_directly_recursive (fn : Ir.fn) =
  let found = ref false in
  Ir.iter_instrs fn (fun _ i ->
      match i.Ir.ik with
      | Ir.Call (_, f, _) when f = fn.Ir.f_name -> found := true
      | _ -> ());
  !found

(** Splice [callee]'s body into [caller] at the callsite identified by
    physical equality with [call_instr] inside [host_label]. *)
let inline_at (caller : Ir.fn) ~host_label ~(call_instr : Ir.instr)
    (callee : Ir.fn) =
  let host = Ir.block caller host_label in
  let dst, args =
    match call_instr.Ir.ik with
    | Ir.Call (d, _, args) -> (d, args)
    | _ -> invalid_arg "inline_at: not a call"
  in
  (* Split the host block around the call. *)
  let rec split before = function
    | [] -> invalid_arg "inline_at: callsite not found"
    | i :: rest when i == call_instr -> (List.rev before, rest)
    | i :: rest -> split (i :: before) rest
  in
  let before, after = split [] host.Ir.instrs in
  let cont = Ir.new_block caller in
  cont.Ir.instrs <- after;
  cont.Ir.term <- host.Ir.term;
  cont.Ir.term_line <- host.Ir.term_line;
  cont.Ir.freq <- host.Ir.freq;
  cont.Ir.prob <- host.Ir.prob;
  (* Phis in old successors referring to the host now come from the
     continuation. *)
  List.iter
    (fun s ->
      List.iter
        (fun (p : Ir.phi) ->
          p.Ir.p_args <-
            List.map
              (fun (l, o) -> if l = host_label then (cont.Ir.b_label, o) else (l, o))
              p.Ir.p_args)
        (Ir.block caller s).Ir.phis)
    (Ir.succs host.Ir.term);
  host.Ir.instrs <- before;
  (* Copy the callee. *)
  let reg_map : (Ir.reg, Ir.operand) Hashtbl.t = Hashtbl.create 32 in
  List.iteri
    (fun i (r, _) ->
      let arg = Option.value ~default:(Ir.Imm 0) (List.nth_opt args i) in
      Hashtbl.replace reg_map r arg)
    callee.Ir.f_params;
  let fresh_of : (Ir.reg, Ir.reg) Hashtbl.t = Hashtbl.create 32 in
  let fresh_def r =
    match Hashtbl.find_opt fresh_of r with
    | Some r' -> r'
    | None ->
        let r' = Ir.fresh_reg caller in
        Hashtbl.replace fresh_of r r';
        Hashtbl.replace reg_map r (Ir.Reg r');
        r'
  in
  (* Pre-register fresh names for every callee definition so that uses
     that appear before defs in our traversal still map correctly. The
     walk follows the callee's layout, never its block table: fresh
     register numbering in the caller must not depend on the table's
     bucket order (which reflects insertion history, not content). *)
  List.iter
    (fun l ->
      let b = Ir.block callee l in
      List.iter (fun (p : Ir.phi) -> ignore (fresh_def p.Ir.p_dst)) b.Ir.phis;
      List.iter
        (fun (i : Ir.instr) ->
          List.iter (fun d -> ignore (fresh_def d)) (Ir.def_of_ikind i.Ir.ik))
        b.Ir.instrs)
    callee.Ir.layout;
  let slot_map : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Ir.slot) ->
      let s' =
        Ir.fresh_slot caller ~size:s.Ir.s_size ~var:s.Ir.s_var
          ~array:s.Ir.s_array
      in
      Hashtbl.replace slot_map s.Ir.s_id s'.Ir.s_id)
    callee.Ir.f_slots;
  let label_map : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun l -> Hashtbl.replace label_map l (Ir.new_block caller).Ir.b_label)
    callee.Ir.layout;
  let map_label l =
    match Hashtbl.find_opt label_map l with
    | Some l' -> l'
    | None -> invalid_arg "inline_at: unmapped label"
  in
  let map_use r = Hashtbl.find_opt reg_map r in
  let map_slots ik =
    let fix (a : Ir.addr) =
      match a.Ir.base with
      | Ir.Slot s -> { a with Ir.base = Ir.Slot (Hashtbl.find slot_map s) }
      | Ir.Global _ -> a
    in
    match ik with
    | Ir.Load (d, a) -> Ir.Load (d, fix a)
    | Ir.Store (a, v) -> Ir.Store (fix a, v)
    | other -> other
  in
  let rets = ref [] in
  List.iter
    (fun l ->
      let src = Ir.block callee l in
      let dst_b = Ir.block caller (map_label l) in
      dst_b.Ir.phis <-
        List.map
          (fun (p : Ir.phi) ->
            {
              Ir.p_dst = fresh_def p.Ir.p_dst;
              p_args =
                List.map
                  (fun (pl, o) ->
                    (map_label pl, Ir.subst_operand map_use o))
                  p.Ir.p_args;
            })
          src.Ir.phis;
      dst_b.Ir.instrs <-
        List.map
          (fun (i : Ir.instr) ->
            {
              Ir.ik = map_slots (Putil.clone_ikind ~fresh_def ~map_use i.Ir.ik);
              line = i.Ir.line;
            })
          src.Ir.instrs;
      dst_b.Ir.freq <- host.Ir.freq *. src.Ir.freq;
      dst_b.Ir.prob <- src.Ir.prob;
      dst_b.Ir.term_line <- src.Ir.term_line;
      dst_b.Ir.term <-
        (match src.Ir.term with
        | Ir.Br t -> Ir.Br (map_label t)
        | Ir.Cbr (c, t1, t2) ->
            Ir.Cbr (Ir.subst_operand map_use c, map_label t1, map_label t2)
        | Ir.Ret v ->
            let value =
              match v with
              | Some o -> Ir.subst_operand map_use o
              | None -> Ir.Imm 0
            in
            rets := (map_label l, value) :: !rets;
            Ir.Br cont.Ir.b_label))
    callee.Ir.layout;
  (* Announce the callee's parameters at the inlined entry, the
     inlined-subroutine debug convention. *)
  let entry_copy = Ir.block caller (map_label callee.Ir.entry) in
  entry_copy.Ir.instrs <-
    List.mapi
      (fun i (_, (v : Ir.var_id)) ->
        let arg = Option.value ~default:(Ir.Imm 0) (List.nth_opt args i) in
        { Ir.ik = Ir.Dbg (v, Some arg); line = call_instr.Ir.line })
      callee.Ir.f_params
    @ entry_copy.Ir.instrs;
  host.Ir.term <- Ir.Br (map_label callee.Ir.entry);
  host.Ir.term_line <- call_instr.Ir.line;
  (* The call's result becomes a phi of the inlined returns. *)
  (match dst with
  | Some d ->
      cont.Ir.phis <- [ { Ir.p_dst = d; p_args = List.rev !rets } ]
  | None -> ());
  (* Layout: host, inlined blocks, continuation, rest. *)
  let inlined_labels = List.map map_label callee.Ir.layout in
  let rest =
    List.filter
      (fun l -> l <> cont.Ir.b_label && not (List.mem l inlined_labels))
      caller.Ir.layout
  in
  let rec insert_after = function
    | [] -> []
    | l :: tl when l = host_label ->
        (l :: inlined_labels) @ (cont.Ir.b_label :: tl)
    | l :: tl -> l :: insert_after tl
  in
  caller.Ir.layout <- insert_after rest;
  Ir.recompute_preds caller

(* ------------------------------------------------------------------ *)

(** [run p ~policy ~roots] inlines according to [policy]. [roots] are
    entry points that must never be deleted even when all their calls are
    inlined away. Returns the number of callsites inlined. *)
let run (p : Ir.program) ~(policy : policy) ~roots =
  let total = ref 0 in
  for _round = 1 to policy.rounds do
    let callsites = count_callsites p in
    let deletable = Hashtbl.create 8 in
    (* Visit callers in source order, never table order: inlining grows
       caller bodies progressively, so the visit order is observable in
       the result (a caller inlined early may cross a size threshold for
       a later decision). Table order depends on insertion history —
       e.g. whether the program was just lowered or restored from a
       snapshot — and must not leak into the output. *)
    let callers = Ir.sorted_funcs p in
    List.iter
      (fun caller ->
        (* Collect the candidate callsites first: inlining mutates the
           block structure under us. *)
        let candidates = ref [] in
        Ir.iter_blocks caller (fun b ->
            List.iter
              (fun (i : Ir.instr) ->
                match i.Ir.ik with
                | Ir.Call (_, f, _) when f <> caller.Ir.f_name -> (
                    match Hashtbl.find_opt p.Ir.funcs f with
                    | Some callee when not (is_directly_recursive callee) ->
                        let size = Ir.size callee in
                        let hot = b.Ir.freq >= 8.0 in
                        let once =
                          policy.called_once
                          && Hashtbl.find_opt callsites f = Some 1
                          (* gcc bounds called-once inlining by unit
                             growth; very large bodies stay outlined. *)
                          && size <= 40
                        in
                        let small =
                          policy.small_threshold > 0
                          && size <= policy.small_threshold
                        in
                        let general =
                          policy.functions_threshold > 0
                          && (size <= policy.functions_threshold
                             || (hot && size <= 2 * policy.functions_threshold))
                        in
                        if
                          (once || small || general)
                          && Ir.size caller + size <= policy.max_caller_size
                        then begin
                          candidates := (b.Ir.b_label, i, callee, once) :: !candidates
                        end
                    | _ -> ())
                | _ -> ())
              b.Ir.instrs);
        List.iter
          (fun (host_label, call_instr, callee, once) ->
            (* The block structure may have changed; locate the call
               again by physical identity. *)
            let still_there = ref None in
            Ir.iter_blocks caller (fun b ->
                List.iter
                  (fun i -> if i == call_instr then still_there := Some b.Ir.b_label)
                  b.Ir.instrs);
            ignore host_label;
            match !still_there with
            | Some host_label ->
                inline_at caller ~host_label ~call_instr callee;
                incr total;
                if once then Hashtbl.replace deletable callee.Ir.f_name ()
            | None -> ())
          (List.rev !candidates);
        Cleanup.run caller)
      callers;
    (* Remove single-callsite functions that are now uncalled. *)
    let callsites_after = count_callsites p in
    Hashtbl.iter
      (fun name () ->
        if
          (not (List.mem name roots))
          && Option.value ~default:0 (Hashtbl.find_opt callsites_after name) = 0
        then Hashtbl.remove p.Ir.funcs name)
      deletable
  done;
  !total
