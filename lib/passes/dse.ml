(** Dead store elimination.

    Two safe-but-real cases:
    - a store overwritten later in the same block by another store to the
      same static address, with no intervening read or call that could
      observe the memory;
    - stores to memory that is never read anywhere in the program (an
      anonymous or write-only slot/global).

    A deleted store's line entry vanishes. When the store targeted a
    named variable's frame home, the variable's memory image is stale
    from then on; we record the fact by binding the variable to the
    stored value if it is still available, or optimized-out otherwise —
    the same trade gcc's -Og refuses to make (paper refs [12], [13]). *)

(* A base's identity across the program: slots are per function,
   globals shared. *)
let base_key (fn : Ir.fn) = function
  | Ir.Global _ as base -> ("", base)
  | Ir.Slot _ as base -> (fn.Ir.f_name, base)

(* Bases loaded anywhere in the program. *)
let loaded_bases (p : Ir.program) =
  let tbl = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ fn ->
      Ir.iter_instrs fn (fun _ i ->
          match i.Ir.ik with
          | Ir.Load (_, a) -> Hashtbl.replace tbl (base_key fn a.Ir.base) ()
          | _ -> ()))
    p.Ir.funcs;
  tbl

let var_of_slot (fn : Ir.fn) = function
  | Ir.Slot s ->
      List.find_map
        (fun (sl : Ir.slot) ->
          if sl.Ir.s_id = s && not sl.Ir.s_array then sl.Ir.s_var else None)
        fn.Ir.f_slots
  | Ir.Global _ -> None

let run_fn (fn : Ir.fn) ~loaded =
  let removed = ref 0 in
  (* Case 2: write-only memory. *)
  Ir.iter_blocks fn (fun b ->
      b.Ir.instrs <-
        List.concat_map
          (fun (i : Ir.instr) ->
            match i.Ir.ik with
            | Ir.Store (a, v) when not (Hashtbl.mem loaded (base_key fn a.Ir.base))
              -> (
                incr removed;
                match var_of_slot fn a.Ir.base with
                | Some var ->
                    (* Keep the value findable for the debugger where we
                       can; the frame home is gone. *)
                    [ { Ir.ik = Ir.Dbg (var, Some v); line = i.Ir.line } ]
                | None -> [])
            | _ -> [ i ])
          b.Ir.instrs);
  (* Case 1: intra-block overwrites. Walk backwards remembering the
     addresses stored after the current point with nothing observing
     memory in between. *)
  Ir.iter_blocks fn (fun b ->
      let pending : (Ir.addr, unit) Hashtbl.t = Hashtbl.create 8 in
      let observes = function
        | Ir.Load _ | Ir.Call _ | Ir.Input _ | Ir.Output _ -> true
        | _ -> false
      in
      let kept =
        List.fold_left
          (fun acc (i : Ir.instr) ->
            match i.Ir.ik with
            | Ir.Store (a, v) ->
                if Hashtbl.mem pending a then begin
                  (* This store is overwritten later with no observer in
                     between: dead. *)
                  incr removed;
                  match var_of_slot fn a.Ir.base with
                  | Some var ->
                      { Ir.ik = Ir.Dbg (var, Some v); line = i.Ir.line } :: acc
                  | None -> acc
                end
                else begin
                  Hashtbl.replace pending a ();
                  i :: acc
                end
            | ik when observes ik ->
                Hashtbl.reset pending;
                i :: acc
            | _ -> i :: acc)
          []
          (List.rev b.Ir.instrs)
      in
      b.Ir.instrs <- kept);
  !removed

(** [run p] runs DSE over the whole program; returns stores removed. *)
let run (p : Ir.program) =
  let loaded = loaded_bases p in
  List.fold_left (fun acc fn -> acc + run_fn fn ~loaded) 0 (Ir.sorted_funcs p)
