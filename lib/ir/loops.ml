(** Natural-loop detection.

    A back edge is an edge [t -> h] where [h] dominates [t]; the natural
    loop of [h] is [h] plus every block that can reach some latch [t]
    without passing through [h]. Used by LICM, loop rotation, unrolling,
    strength reduction and the branch-probability estimator. *)

module Label_set = Set.Make (Int)

type loop = {
  header : int;
  latches : int list;  (** sources of back edges into [header] *)
  body : Label_set.t;  (** includes the header *)
  depth : int;  (** 1 for outermost *)
}

type t = { loops : loop list; depth_of : int array  (** by label; 0 outside any loop *) }

(** [find fn dom] takes a tree {!Dom.compute} has just built: the
    natural-loop walk reads the [preds] that computation refreshed. *)
let find (fn : Ir.fn) (dom : Dom.t) =
  let n = fn.Ir.next_label in
  (* Latches of each header, in discovery order once reversed. *)
  let latches = Array.make n [] in
  List.iter
    (fun l ->
      List.iter
        (fun s -> if Dom.dominates dom s l then latches.(s) <- l :: latches.(s))
        (Ir.succs (Ir.block fn l).Ir.term))
    (Dom.order dom);
  let natural_loop header latches =
    let body = ref (Label_set.singleton header) in
    let stack = ref latches in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | l :: rest ->
          stack := rest;
          if not (Label_set.mem l !body) then begin
            body := Label_set.add l !body;
            stack := List.rev_append (Ir.block fn l).Ir.preds !stack
          end
    done;
    !body
  in
  (* Headers in ascending label order: the deterministic loop order. *)
  let loops = ref [] in
  for header = n - 1 downto 0 do
    match latches.(header) with
    | [] -> ()
    | ls ->
        let latches = List.rev ls in
        loops :=
          { header; latches; body = natural_loop header latches; depth = 1 }
          :: !loops
  done;
  (* Nesting depth of a reachable block: number of loop bodies
     containing it. *)
  let depth_of = Array.make n 0 in
  List.iter
    (fun lp ->
      Label_set.iter
        (fun l -> if Dom.reachable dom l then depth_of.(l) <- depth_of.(l) + 1)
        lp.body)
    !loops;
  let loops = List.map (fun lp -> { lp with depth = depth_of.(lp.header) }) !loops in
  { loops; depth_of }

let depth t l = if l >= 0 && l < Array.length t.depth_of then t.depth_of.(l) else 0

(** Blocks outside the loop that branch into its header. *)
let entering (fn : Ir.fn) lp =
  List.filter (fun p -> not (Label_set.mem p lp.body)) (Ir.block fn lp.header).Ir.preds

(** [preheader fn lp] returns the unique outside predecessor of the
    header if it has the header as its only successor; otherwise creates
    one, rerouting outside edges and header phis through it. Returns the
    preheader label. *)
let preheader (fn : Ir.fn) lp =
  let outside = entering fn lp in
  match outside with
  | [ p ] when Ir.succs (Ir.block fn p).Ir.term = [ lp.header ] -> p
  | _ ->
      let ph = Ir.new_block fn in
      ph.Ir.term <- Br lp.header;
      (* Reroute each outside edge to the preheader. *)
      List.iter
        (fun p ->
          let pb = Ir.block fn p in
          let redirect l = if l = lp.header then ph.Ir.b_label else l in
          pb.Ir.term <-
            (match pb.Ir.term with
            | Br l -> Br (redirect l)
            | Cbr (c, l1, l2) -> Cbr (c, redirect l1, redirect l2)
            | Ret _ as t -> t))
        outside;
      (* Split header phis: outside entries move to a phi in the
         preheader. *)
      let header_b = Ir.block fn lp.header in
      List.iter
        (fun (p : Ir.phi) ->
          let outside_args, inside_args =
            List.partition (fun (l, _) -> List.mem l outside) p.p_args
          in
          match outside_args with
          | [] -> ()
          | [ (_, o) ] ->
              p.p_args <- (ph.Ir.b_label, o) :: inside_args
          | _ ->
              let r = Ir.fresh_reg fn in
              ph.Ir.phis <-
                ph.Ir.phis @ [ { Ir.p_dst = r; p_args = outside_args } ];
              p.p_args <- (ph.Ir.b_label, Reg r) :: inside_args)
        header_b.Ir.phis;
      (* Place the preheader just before the header in the layout. *)
      fn.Ir.layout <-
        List.concat_map
          (fun l ->
            if l = lp.header then [ ph.Ir.b_label; l ]
            else if l = ph.Ir.b_label then []
            else [ l ])
          fn.Ir.layout;
      Ir.recompute_preds fn;
      ph.Ir.b_label
