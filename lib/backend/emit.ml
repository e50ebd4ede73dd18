(** Binary emission: flatten machine functions to an address space,
    resolve branches, drop fall-through jumps, and build the debug
    information (line table and location lists).

    The location-list builder is a small LiveDebugValues: per-block
    forward scans track which location holds each variable, a binding
    dies when its location is overwritten, and block entry states are the
    meet (agreement) of predecessor exits — disagreeing locations after a
    join are exactly how duplication-heavy passes (jump threading, loop
    rotation) lose variables. *)

type eop =
  | Eins of Mach.mkind  (** non-control instruction *)
  | Ejmp of int
  | Ecbr of Mach.mval * int * int
  | Eret of Mach.mval option

type func_info = {
  fi_name : string;
  fi_index : int;
  fi_entry : int;
  fi_end : int;  (** exclusive *)
  fi_data_words : int;
  fi_frame_words : int;  (** data + spill *)
  fi_slot_offset : (int * int * int) list;  (** slot id, offset, size *)
  fi_param_locs : Mach.mloc list;
  fi_activation : int option;
      (** shrink-wrapped functions pay the frame cost when execution first
          reaches this address *)
}

type binary = {
  code : eop array;
  line_of : int option array;
  funcs : func_info array;
  fn_by_name : (string, int) Hashtbl.t;
  fn_of_addr : int array;
  bin_globals : Ir.global_def list;
  debug : Dwarfish.t;
  text_digest : string;
  full_digest : string;
      (** content address of the whole binary — machine code, line
          attributions and debug sections. Two binaries sharing it are
          interchangeable for *any* measurement, including debug-quality
          metrics; [text_digest] alone only licenses sharing
          code-dependent results (execution cost), since identical
          .text can carry different debug info. *)
}

(* ------------------------------------------------------------------ *)
(* Identical-code folding (gcc's toplevel-reorder model)               *)

(* Canonical text of a function's code with labels normalized to layout
   positions and all debug artifacts stripped. Two functions with equal
   canonical text produce identical .text, so the later one can alias the
   earlier. *)
let canonical_text (m : Mach.mfn) =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace pos l i) m.Mach.mf_layout;
  let lbl l = string_of_int (Option.value ~default:(-1) (Hashtbl.find_opt pos l)) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat ","
       (List.map Mach.mloc_to_string m.Mach.mf_param_locs));
  List.iter
    (fun (fs : Mach.frame_slot) ->
      Buffer.add_string buf (Printf.sprintf "|s%d:%d" fs.Mach.fs_id fs.Mach.fs_size))
    m.Mach.mf_frame;
  Buffer.add_string buf (Printf.sprintf "|spill%d|" m.Mach.mf_spill_words);
  List.iter
    (fun l ->
      let b = Mach.mblock m l in
      Buffer.add_string buf (lbl l ^ ":");
      List.iter
        (fun (i : Mach.minstr) ->
          match i.Mach.mk with
          | Mach.Mdbg _ -> ()
          | mk -> Buffer.add_string buf (Mach.mkind_to_string mk ^ ";"))
        b.Mach.mins;
      (match b.Mach.mterm with
      | Mach.Mret None -> Buffer.add_string buf "ret;"
      | Mach.Mret (Some v) ->
          Buffer.add_string buf ("ret " ^ Mach.mval_to_string v ^ ";")
      | Mach.Mjmp t -> Buffer.add_string buf ("jmp " ^ lbl t ^ ";")
      | Mach.Mcbr (c, t1, t2) ->
          Buffer.add_string buf
            (Printf.sprintf "cbr %s,%s,%s;" (Mach.mval_to_string c) (lbl t1)
               (lbl t2))))
    m.Mach.mf_layout;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Location-list construction                                          *)

module Var_map = Map.Make (struct
  type t = Ir.var_id

  let compare = compare
end)

type binding = Mach.dloc  (* where the variable's value is *)

type event = Bind of Ir.var_id * binding option | Write of Mach.mloc

(* The meet of two binding environments keeps only agreeing bindings. *)
let meet_env a b =
  Var_map.merge
    (fun _ x y -> match (x, y) with Some x, Some y when x = y -> Some x | _ -> None)
    a b

(* ------------------------------------------------------------------ *)

let slot_layout (m : Mach.mfn) =
  let offset = ref 0 in
  let table =
    List.map
      (fun (fs : Mach.frame_slot) ->
        let o = !offset in
        offset := o + fs.Mach.fs_size;
        (fs.Mach.fs_id, o, fs.Mach.fs_size))
      m.Mach.mf_frame
  in
  (table, !offset)

let dloc_to_location ~data_words = function
  | Mach.Dloc (Mach.Preg k) -> Dwarfish.In_reg k
  | Mach.Dloc (Mach.Pslot i) -> Dwarfish.In_slot (data_words + i)
  | Mach.Dconst n -> Dwarfish.Const n

(** [emit ?icf ?entry_values prog] flattens an ordered machine program
    into a binary. With [icf] (gcc's toplevel-reorder model) functions
    with identical code are folded into one. With [entry_values] (gcc's
    variable-tracking style), a binding killed by a register overwrite is
    continued as an entry-value-style entry until the next rebinding —
    present in the debug info, unusable by the debugger. *)
let emit ?(icf = false) ?(entry_values = false) (prog : Mach.mprogram) : binary =
  let code = ref [] in
  let line_of = ref [] in
  let fn_of_addr = ref [] in
  let next_addr = ref 0 in
  let push fi_index eop line =
    code := eop :: !code;
    line_of := line :: !line_of;
    fn_of_addr := fi_index :: !fn_of_addr;
    incr next_addr
  in
  let debug = Dwarfish.empty () in
  (* Location lists are gathered per variable over the whole program and
     stored in [debug.vars] once, in first-seen order, with each
     variable's ranges in the order they were found. *)
  let var_infos : (Ir.var_id, Dwarfish.var_info) Hashtbl.t = Hashtbl.create 64 in
  let var_order = ref [] in
  let add_range ~var ~is_array range =
    match Hashtbl.find_opt var_infos var with
    | Some vi -> vi.Dwarfish.vi_ranges <- range :: vi.Dwarfish.vi_ranges
    | None ->
        let vi =
          { Dwarfish.vi_var = var; vi_is_array = is_array; vi_ranges = [ range ] }
        in
        Hashtbl.replace var_infos var vi;
        var_order := vi :: !var_order
  in
  let funcs = ref [] in
  let fn_by_name = Hashtbl.create 16 in
  (* ICF: functions whose canonical text matches an earlier function
     become aliases and emit no code (and hence no debug info — the
     mechanical cost of folding). *)
  let canon_seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let fi_counter = ref 0 in
  List.iter
    (fun (m : Mach.mfn) ->
      let canon =
        if icf then canonical_text m
        else "unique:" ^ m.Mach.mf_name
      in
      match Hashtbl.find_opt canon_seen canon with
      | Some idx -> Hashtbl.replace fn_by_name m.Mach.mf_name idx
      | None ->
          let fi_index = !fi_counter in
          incr fi_counter;
          Hashtbl.replace canon_seen canon fi_index;
          Hashtbl.replace fn_by_name m.Mach.mf_name fi_index;
          let slot_offsets, data_words = slot_layout m in
          let entry_addr = !next_addr in
          (* First pass: assign addresses to blocks, accounting for
             dropped fall-through jumps and stripped Mdbg. *)
          let block_addr = Hashtbl.create 16 in
          let addr = ref entry_addr in
          let layout = m.Mach.mf_layout in
          let rec assign = function
            | [] -> ()
            | l :: rest ->
                Hashtbl.replace block_addr l !addr;
                let b = Mach.mblock m l in
                let real =
                  List.length
                    (List.filter
                       (fun (i : Mach.minstr) ->
                         match i.Mach.mk with Mach.Mdbg _ -> false | _ -> true)
                       b.Mach.mins)
                in
                addr := !addr + real;
                (match (b.Mach.mterm, rest) with
                | Mach.Mjmp t, next :: _ when t = next -> () (* fall-through *)
                | _ -> incr addr);
                assign rest
          in
          assign layout;
          let fn_end = !addr in
          (* Second pass: emit code, collect line entries and debug
             events per block. *)
          let events : (int, (int * event) list ref) Hashtbl.t =
            Hashtbl.create 16
          in
          let rec emit_blocks = function
            | [] -> ()
            | l :: rest ->
                let b = Mach.mblock m l in
                let evs = ref [] in
                Hashtbl.replace events l evs;
                List.iter
                  (fun (i : Mach.minstr) ->
                    match i.Mach.mk with
                    | Mach.Mdbg (v, d) ->
                        (* Takes effect from the next emitted address. *)
                        evs := (!next_addr, Bind (v, d)) :: !evs
                    | mk ->
                        List.iter
                          (fun w -> evs := (!next_addr, Write w) :: !evs)
                          (Mach.writes mk);
                        (match i.Mach.mline with
                        | Some line -> Dwarfish.add_line debug ~addr:!next_addr ~line
                        | None -> ());
                        push fi_index (Eins mk) i.Mach.mline)
                  b.Mach.mins;
                let target t = Hashtbl.find block_addr t in
                (match (b.Mach.mterm, rest) with
                | Mach.Mjmp t, next :: _ when t = next -> ()
                | Mach.Mjmp t, _ ->
                    (match b.Mach.mterm_line with
                    | Some line -> Dwarfish.add_line debug ~addr:!next_addr ~line
                    | None -> ());
                    push fi_index (Ejmp (target t)) b.Mach.mterm_line
                | Mach.Mcbr (c, t1, t2), _ ->
                    (match b.Mach.mterm_line with
                    | Some line -> Dwarfish.add_line debug ~addr:!next_addr ~line
                    | None -> ());
                    push fi_index (Ecbr (c, target t1, target t2)) b.Mach.mterm_line
                | Mach.Mret v, _ ->
                    (match b.Mach.mterm_line with
                    | Some line -> Dwarfish.add_line debug ~addr:!next_addr ~line
                    | None -> ());
                    push fi_index (Eret v) b.Mach.mterm_line);
                emit_blocks rest
          in
          emit_blocks layout;
          (* Location lists: dataflow over blocks, then per-block range
             emission. *)
          let layout_arr = Array.of_list layout in
          let n = Array.length layout_arr in
          let pos = Hashtbl.create 16 in
          Array.iteri (fun i l -> Hashtbl.replace pos l i) layout_arr;
          let preds = Array.make n [] and succs = Array.make n [] in
          Array.iteri
            (fun i l ->
              List.iter
                (fun s ->
                  match Hashtbl.find_opt pos s with
                  | Some j ->
                      preds.(j) <- i :: preds.(j);
                      succs.(i) <- j :: succs.(i)
                  | None -> ())
                (Mach.msuccs (Mach.mblock m l).Mach.mterm))
            layout_arr;
          let block_events =
            Array.map (fun l -> List.rev_map snd !(Hashtbl.find events l)) layout_arr
          in
          let transfer evs env0 =
            List.fold_left
              (fun env ev ->
                match ev with
                | Bind (v, Some d) -> Var_map.add v d env
                | Bind (v, None) -> Var_map.remove v env
                | Write w -> Var_map.filter (fun _ d -> d <> Mach.Dloc w) env)
              env0 evs
          in
          (* Optimistic (top-initialized) fixpoint: a block whose
             predecessors are all still unvisited is skipped — its input
             stays at top — so every defined in/out only ever loses
             bindings and the iteration terminates. (Treating unvisited
             inputs as bottom instead makes the dataflow non-monotone and
             can oscillate forever on loopy layouts.) The transfer is
             monotone and the meet is an intersection, so any visiting
             order reaches the same (greatest) fixpoint: passes over the
             layout revisit only blocks a predecessor's output changed
             under. *)
          let block_in = Array.make n None and block_out = Array.make n None in
          let dirty = Array.make n false in
          Option.iter
            (fun e -> dirty.(e) <- true)
            (Hashtbl.find_opt pos m.Mach.mf_entry);
          let again = ref true in
          while !again do
            again := false;
            for i = 0 to n - 1 do
              if dirty.(i) then begin
                dirty.(i) <- false;
                let inn_opt =
                  if layout_arr.(i) = m.Mach.mf_entry then Some Var_map.empty
                  else
                    match List.filter_map (Array.get block_out) preds.(i) with
                    | [] -> None (* all predecessors still at top *)
                    | first :: rest -> Some (List.fold_left meet_env first rest)
                in
                match inn_opt with
                | None -> ()
                | Some inn ->
                    block_in.(i) <- inn_opt;
                    let out = transfer block_events.(i) inn in
                    let same =
                      match block_out.(i) with
                      | Some old -> Var_map.equal ( = ) old out
                      | None -> false
                    in
                    if not same then begin
                      block_out.(i) <- Some out;
                      List.iter
                        (fun j ->
                          dirty.(j) <- true;
                          if j <= i then again := true)
                        succs.(i)
                    end
              end
            done
          done;
          (* Range emission. *)
          Array.iteri
            (fun i l ->
              let bstart = Hashtbl.find block_addr l in
              let bend =
                if i + 1 < Array.length layout_arr then
                  Hashtbl.find block_addr layout_arr.(i + 1)
                else fn_end
              in
              let open_ranges = ref Var_map.empty in
              let ghost_ranges = ref Var_map.empty in
              let start_env = Option.value ~default:Var_map.empty block_in.(i) in
              Var_map.iter
                (fun v d -> open_ranges := Var_map.add v (bstart, d) !open_ranges)
                start_env;
              let close ?(killed = false) v addr =
                match Var_map.find_opt v !open_ranges with
                | Some (lo, d) ->
                    if addr > lo then
                      add_range ~var:v ~is_array:false
                        {
                          Dwarfish.lo;
                          hi = addr;
                          where = dloc_to_location ~data_words d;
                          usable = true;
                        };
                    open_ranges := Var_map.remove v !open_ranges;
                    (* gcc-style variable tracking: the value still has a
                       recoverable expression, emitted as an entry-value
                       entry the debugger cannot materialize. *)
                    if killed && entry_values then
                      ghost_ranges := Var_map.add v (addr, d) !ghost_ranges
                | None -> ()
              in
              let close_ghost v addr =
                match Var_map.find_opt v !ghost_ranges with
                | Some (lo, d) ->
                    if addr > lo then
                      add_range ~var:v ~is_array:false
                        {
                          Dwarfish.lo;
                          hi = addr;
                          where = dloc_to_location ~data_words d;
                          usable = false;
                        };
                    ghost_ranges := Var_map.remove v !ghost_ranges
                | None -> ()
              in
              List.iter
                (fun (addr, ev) ->
                  match ev with
                  | Bind (v, d) -> (
                      close v addr;
                      close_ghost v addr;
                      match d with
                      | Some d -> open_ranges := Var_map.add v (addr, d) !open_ranges
                      | None -> ())
                  | Write w ->
                      let victims =
                        Var_map.filter (fun _ (_, d) -> d = Mach.Dloc w) !open_ranges
                      in
                      Var_map.iter (fun v _ -> close ~killed:true v addr) victims)
                (List.rev !(Hashtbl.find events l));
              Var_map.iter (fun v _ -> close v bend) !open_ranges;
              Var_map.iter (fun v _ -> close_ghost v bend) !ghost_ranges)
            layout_arr;
          (* Frame-resident variables: whole-function (or post-activation)
             slot locations. *)
          let activation =
            if m.Mach.mf_shrink_wrapped then begin
              (* First address whose instruction touches the frame. *)
              let found = ref None in
              List.iter
                (fun l ->
                  let b = Mach.mblock m l in
                  let a = ref (Hashtbl.find block_addr l) in
                  List.iter
                    (fun (i : Mach.minstr) ->
                      match i.Mach.mk with
                      | Mach.Mdbg _ -> ()
                      | mk ->
                          if !found = None && Mach.touches_frame mk then
                            found := Some !a;
                          incr a)
                    b.Mach.mins)
                layout;
              !found
            end
            else None
          in
          let static_start =
            match activation with Some a -> a | None -> entry_addr
          in
          List.iter
            (fun (fs : Mach.frame_slot) ->
              match fs.Mach.fs_var with
              | Some v ->
                  let offset =
                    List.find_map
                      (fun (id, o, _) -> if id = fs.Mach.fs_id then Some o else None)
                      slot_offsets
                  in
                  (match offset with
                  | Some o ->
                      add_range ~var:v ~is_array:fs.Mach.fs_array
                        {
                          Dwarfish.lo = static_start;
                          hi = fn_end;
                          where = Dwarfish.In_slot o;
                          usable = true;
                        }
                  | None -> ())
              | None -> ())
            m.Mach.mf_frame;
          funcs :=
            {
              fi_name = m.Mach.mf_name;
              fi_index;
              fi_entry = entry_addr;
              fi_end = fn_end;
              fi_data_words = data_words;
              fi_frame_words = data_words + m.Mach.mf_spill_words;
              fi_slot_offset = slot_offsets;
              fi_param_locs = m.Mach.mf_param_locs;
              fi_activation = activation;
            }
            :: !funcs)
    prog.Mach.mfuncs;
  debug.Dwarfish.vars <-
    List.rev_map
      (fun (vi : Dwarfish.var_info) ->
        vi.Dwarfish.vi_ranges <- List.rev vi.Dwarfish.vi_ranges;
        vi)
      !var_order;
  Dwarfish.finalize debug;
  let code = Array.of_list (List.rev !code) in
  let line_of = Array.of_list (List.rev !line_of) in
  let fn_of_addr = Array.of_list (List.rev !fn_of_addr) in
  let funcs =
    Array.of_list (List.sort (fun a b -> compare a.fi_index b.fi_index) (List.rev !funcs))
  in
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  {
    code;
    line_of;
    funcs;
    fn_by_name;
    fn_of_addr;
    bin_globals = prog.Mach.mglobals;
    debug;
    text_digest = digest code;
    full_digest = digest (code, line_of, funcs, prog.Mach.mglobals, debug);
  }
