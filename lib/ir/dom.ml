(** Dominator tree and dominance frontiers.

    Implements the Cooper–Harvey–Kennedy iterative algorithm over the
    reverse postorder; simple and fast enough for our function sizes.
    Used by mem2reg (phi placement), GVN and the dominator-based
    optimizations. *)

type t = {
  idom : (int, int) Hashtbl.t;  (** immediate dominator; entry maps to itself *)
  order : int list;  (** reverse postorder of reachable blocks *)
  children : (int, int list) Hashtbl.t;  (** dominator-tree children *)
}

let compute (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let order = Ir.rpo fn in
  let index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace index l i) order;
  let idom = Hashtbl.create 16 in
  Hashtbl.replace idom fn.Ir.entry fn.Ir.entry;
  let intersect a b =
    (* Walk both fingers up by RPO index until they meet. *)
    let rec go a b =
      if a = b then a
      else
        let ia = Hashtbl.find index a and ib = Hashtbl.find index b in
        if ia > ib then go (Hashtbl.find idom a) b else go a (Hashtbl.find idom b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> fn.Ir.entry then begin
          let preds =
            List.filter (fun p -> Hashtbl.mem index p) (Ir.block fn l).Ir.preds
          in
          let processed = List.filter (Hashtbl.mem idom) preds in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if Hashtbl.find_opt idom l <> Some new_idom then begin
                Hashtbl.replace idom l new_idom;
                changed := true
              end
        end)
      order
  done;
  (* Children in reverse postorder: prepend, then reverse each list once. *)
  let children = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if l <> fn.Ir.entry then
        match Hashtbl.find_opt idom l with
        | Some p ->
            let existing = Option.value ~default:[] (Hashtbl.find_opt children p) in
            Hashtbl.replace children p (l :: existing)
        | None -> ())
    order;
  Hashtbl.filter_map_inplace (fun _ ls -> Some (List.rev ls)) children;
  { idom; order; children }

let idom t l =
  match Hashtbl.find_opt t.idom l with
  | Some d when d <> l -> Some d
  | _ -> None

let children t l = Option.value ~default:[] (Hashtbl.find_opt t.children l)

(** [dominates t a b] — does [a] dominate [b] (reflexively)? *)
let dominates t a b =
  let rec up l = if l = a then true else match idom t l with Some p -> up p | None -> false in
  up b

(** Dominance frontier of every reachable block (the classic
    runner-to-idom walk from each join point's predecessors). *)
let frontiers (fn : Ir.fn) t =
  let df = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace df l []) t.order;
  List.iter
    (fun l ->
      match Hashtbl.find_opt t.idom l with
      | None -> ()
      | Some id ->
          let b = Ir.block fn l in
          let preds = List.filter (fun p -> Hashtbl.mem t.idom p) b.Ir.preds in
          if List.length preds >= 2 then
            List.iter
              (fun p ->
                let runner = ref p in
                let continue_walk = ref true in
                while !continue_walk do
                  if !runner = id then continue_walk := false
                  else begin
                    let cur =
                      Option.value ~default:[] (Hashtbl.find_opt df !runner)
                    in
                    if not (List.mem l cur) then
                      Hashtbl.replace df !runner (l :: cur);
                    match Hashtbl.find_opt t.idom !runner with
                    | Some up when up <> !runner -> runner := up
                    | Some _ | None -> continue_walk := false
                  end
                done)
              preds)
    t.order;
  df
