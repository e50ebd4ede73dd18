(** Dominator tree and dominance frontiers.

    Implements the Cooper–Harvey–Kennedy iterative algorithm over the
    reverse postorder; simple and fast enough for our function sizes.
    Used by mem2reg (phi placement), GVN and the dominator-based
    optimizations. Every table is an array indexed by label, sized by
    the function's [next_label] when the tree is computed; a label past
    that (one made afterwards) is absent, as an unreachable one is. *)

type t = {
  idom : int array;  (** immediate dominator; entry maps to itself, -1 if unreachable *)
  order : int list;  (** reverse postorder of reachable blocks *)
  children : int list array;  (** dominator-tree children, in reverse postorder *)
}

let compute (fn : Ir.fn) =
  Ir.recompute_preds fn;
  let order = Ir.rpo fn in
  let n = fn.Ir.next_label in
  let rpo = Array.of_list order in
  let index = Array.make n (-1) in
  Array.iteri (fun i l -> index.(l) <- i) rpo;
  let idom = Array.make n (-1) in
  let entry = fn.Ir.entry in
  idom.(entry) <- entry;
  (* Walk both fingers up by RPO index until they meet. *)
  let rec intersect a b =
    if a = b then a
    else if index.(a) > index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  (* The preds were just rebuilt from the layout, so each is below [n];
     only processed ones (idom set, hence reachable) take part. *)
  let preds = Array.map (fun l -> (Ir.block fn l).Ir.preds) rpo in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to Array.length rpo - 1 do
      let l = rpo.(i) in
      let new_idom =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc else if acc < 0 then p else intersect acc p)
          (-1) preds.(i)
      in
      if new_idom >= 0 && idom.(l) <> new_idom then begin
        idom.(l) <- new_idom;
        changed := true
      end
    done
  done;
  (* Children in reverse postorder: prepend from the back. *)
  let children = Array.make n [] in
  for i = Array.length rpo - 1 downto 1 do
    let l = rpo.(i) in
    let p = idom.(l) in
    if p >= 0 then children.(p) <- l :: children.(p)
  done;
  { idom; order; children }

let order t = t.order

let reachable t l = l >= 0 && l < Array.length t.idom && t.idom.(l) >= 0

let idom t l =
  if reachable t l && t.idom.(l) <> l then Some t.idom.(l) else None

let children t l =
  if l >= 0 && l < Array.length t.children then t.children.(l) else []

let dominates t a b =
  let rec up l =
    l = a || (reachable t l && t.idom.(l) <> l && up t.idom.(l))
  in
  up b

let frontiers (fn : Ir.fn) t =
  let n = Array.length t.idom in
  let df = Array.make n [] in
  (* [last.(r) = l]: [l] is already in [df.(r)] (each join [l] is
     visited once, so a stamp replaces a membership scan). *)
  let last = Array.make n (-1) in
  List.iter
    (fun l ->
      let id = t.idom.(l) in
      let preds = List.filter (reachable t) (Ir.block fn l).Ir.preds in
      match preds with
      | [] | [ _ ] -> ()
      | _ ->
          List.iter
            (fun p ->
              let runner = ref p in
              while !runner <> id && !runner >= 0 do
                let r = !runner in
                if last.(r) <> l then begin
                  last.(r) <- l;
                  df.(r) <- l :: df.(r)
                end;
                let up = t.idom.(r) in
                runner := if up = r then -1 else up
              done)
            preds)
    t.order;
  fun l -> if l >= 0 && l < n then df.(l) else []
