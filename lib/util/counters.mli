(** Named integer counters and the request scope they report into.

    Every counter in the repository lives in a {!t}: the process-wide
    {!global} table ([sanitize/*], [prefix/*], [shard/*], [search/*],
    [vm/*] rows), one table per measurement engine ([engine/*]), one
    per disk-store handle ([store/*]) and one per observability session
    ([obs/*]). Row names are the names the stats table renders.

    A request scope attributes work to whoever asked for it. {!add}
    bumps its table and, when the calling (domain, thread) runs inside
    {!with_scope}, that scope too — so a service request can report
    exactly its own activity while other requests run alongside it.
    Scopes nest: an inner scope's rows are folded into the enclosing
    one when it exits. [Engine.Pool.map] carries the caller's scope
    into its worker domains. *)

type t
(** A mutex-guarded [name -> int] table; also what a scope accumulates
    into. Domain- and thread-safe. *)

val create : unit -> t
(** A fresh, empty table. *)

val global : t
(** The process-wide table. *)

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to row [name] of [t] and of the current
    scope, if any. *)

val get : t -> string -> int
(** The value of one row; [0] when absent. *)

val rows : ?prefix:string -> t -> (string * int) list
(** The non-zero rows whose name starts with [prefix] (default: all),
    sorted by name. *)

val reset : t -> prefix:string -> unit
(** Drop every row whose name starts with [prefix] (tests, bench
    scenario isolation). Scopes are not touched. *)

val with_scope : t -> (unit -> 'a) -> 'a
(** [with_scope s f] runs [f] with [s] as the calling (domain,
    thread)'s current scope and restores the previous one afterwards,
    even when [f] raises. When [f] ran nested inside another scope,
    [s]'s rows are then added to that scope. Concurrent scopes on
    distinct domains or systhreads do not interfere. *)

val current : unit -> t option
(** The calling (domain, thread)'s current scope. *)
