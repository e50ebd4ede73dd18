(** Dominator tree and dominance frontiers of a function's CFG.

    A tree describes the function as it was when {!compute} ran. Any
    label it does not know — unreachable then, or created since — is
    absent: {!idom} is [None], {!children} is [[]], {!reachable} is
    [false], and it dominates nothing but itself. *)

type t

val compute : Ir.fn -> t
(** Recompute [preds], then build the tree (Cooper–Harvey–Kennedy over
    the reverse postorder). *)

val order : t -> int list
(** Reverse postorder of the reachable blocks, entry first. *)

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry and for absent labels. *)

val children : t -> int -> int list
(** Dominator-tree children, in reverse postorder. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does [a] dominate [b] (reflexively)? *)

val reachable : t -> int -> bool
(** Was the label reachable from entry when the tree was computed? *)

val frontiers : Ir.fn -> t -> int -> int list
(** Dominance frontier of every reachable block (the classic
    runner-to-idom walk from each join point's predecessors), read
    through the returned function; [[]] for any other label. *)
