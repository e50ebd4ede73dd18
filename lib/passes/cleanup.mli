(** CFG cleanup, run after every IR pass in both pipelines (not toggleable). *)

val run : Ir.fn -> unit
(** The full cleanup: {!rewrite}, unless {!is_clean} finds nothing for it
    to do. *)

val run_program : Ir.program -> unit
(** {!run} on every function, in {!Ir.iter_funcs} order. *)

val rewrite : Ir.fn -> unit
(** The component rewrites in their fixed order, unconditionally: fold
    constant and equal-target branches, prune unreachable blocks, forward
    trivial phis, remove forwarding blocks, merge straight-line pairs,
    forward trivial phis again, sweep dead phis, prune again, and mark
    debug bindings of undefined registers optimized-out. *)

val is_clean : Ir.fn -> bool
(** Would {!rewrite} leave the function structurally unchanged, [preds]
    included? Exact when it answers [true]; it answers [false] for any
    shape it does not vouch for (an out-of-range label or register, a
    label that is not a block), so {!run} takes the full rewrite there. *)
