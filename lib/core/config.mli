(** Compiler configurations: a pipeline family, an optimization level,
    and a set of disabled pass instances — the paper's [Ox-dy]
    configurations are values of this type. *)

type compiler = Gcc | Clang

type level = O0 | Og | O1 | O2 | O3

type t = {
  compiler : compiler;
  level : level;
  disabled : string list;
      (** pass names to disable; a name disables every instance of the
          pass in the pipeline (paper footnote 2) *)
}

val compiler_name : compiler -> string

val level_name : level -> string

val compiler_of_string : string -> compiler option
(** The inverse of {!compiler_name}: exact spellings only. *)

val level_of_string : string -> level option
(** The inverse of {!level_name}: exact spellings only. *)

val name : t -> string
(** E.g. ["gcc-O2"] or ["clang-O1-d5"]. Computed on the {!canonical}
    form, so permuted or duplicated [disabled] lists print the same
    name. *)

val make : ?disabled:string list -> compiler -> level -> t
(** Returns the {!canonical} form. *)

val canonical : t -> t
(** [disabled] sorted and deduplicated. [disabled] is semantically a
    set ({!enabled} is a membership test), so configurations that agree
    up to order and duplication are interchangeable; [canonical] is the
    chosen representative. *)

val fingerprint : t -> string
(** A stable, injective-on-canonical-forms content address, e.g.
    ["gcc:O2:dce,inline"] — the cache key of the measurement engine.
    Invariant: [fingerprint a = fingerprint b] iff [equal a b]. *)

val compare : t -> t -> int
(** Total order on canonical forms; consistent with {!equal} and
    suitable for [Map.Make]. *)

val equal : t -> t -> bool
(** Semantic equality: insensitive to order and duplication of
    [disabled] (unlike polymorphic equality, whose use as a cache key
    this function replaces). *)

val hash : t -> int
(** Compatible with {!equal}; suitable for [Hashtbl.Make]. *)

val standard_levels : compiler -> level list
(** [Og; O1; O2; O3] for gcc, [O1; O2; O3] for clang (which has no Og,
    as in the paper). *)

val enabled : t -> string -> bool
(** Is a pass instance enabled under this configuration? *)
