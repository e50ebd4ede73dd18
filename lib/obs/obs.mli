(** Zero-cost-when-disabled tracing: spans, counters, per-pass
    profiles, Chrome [trace_event] export and a self-time report.

    Install a session with {!start}; every recording entry point is a
    single match on the session ref when disabled — no clock read, no
    allocation — so call sites stay instrumented unconditionally. *)

module Clock : sig
  val now_ns : unit -> int64
  (** Monotonic clock, nanoseconds (bechamel's [CLOCK_MONOTONIC] stub;
      no allocation). *)
end

(** {1 Sessions} *)

type kind =
  | Begin  (** Chrome [ph:"B"] — opens a named interval *)
  | End  (** Chrome [ph:"E"] — closes the innermost [Begin] *)
  | Complete of int64  (** Chrome [ph:"X"] with a duration in ns *)

type event = {
  ev_name : string;
  ev_kind : kind;
  ev_ts : int64;  (** ns since the session started *)
  ev_tid : int;  (** recording domain — engine workers get own lanes *)
  ev_args : (string * string) list;  (** per-span key/value attributes *)
}

type session

val start : unit -> unit
(** Install a fresh process-wide recording session (idempotent). *)

val stop : unit -> session option
(** Uninstall and return the active session, if any. *)

val enabled : unit -> bool

(** {1 Recording} *)

module Span : sig
  val wrap : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [wrap name f] runs [f] inside a complete span ([X] event),
      recorded even when [f] raises. Disabled: exactly [f ()]. *)

  val start : ?args:(string * string) list -> string -> unit
  (** Open a bracketed span ([B] event). Balance with {!finish}. *)

  val finish : string -> unit
  (** Close the innermost open {!start} of this domain ([E] event). *)
end

val count : ?n:int -> string -> unit
(** Bump a named session counter (created on first use; default 1) and
    the current {!Util.Counters} scope's [obs/<name>] row. Does nothing
    while no session is active. *)

val pipeline_instrument : unit -> Instrument.t option
(** The tracer's view of one compilation — [Some] only while a session
    is active. Phases become [B]/[E] events named ["phase:<name>"]; each
    pass becomes a complete span (self time by construction: the span
    runs from the previous boundary to this one) and accumulates into
    the session's per-pass profiles with IR/debug-info deltas. Create
    one per compile: the closure carries that compile's boundary
    state. *)

(** {1 Session contents} *)

val events : session -> event list
(** Events in emission order. *)

val counters : session -> (string * int) list
(** Session counters (non-zero), sorted by name. *)

val current_counters : unit -> (string * int) list
(** Counters of the active session; [[]] when disabled. *)

type pass_profile = {
  pr_pass : string;
  pr_calls : int;  (** pass invocations across all compiles recorded *)
  pr_ns : int64;  (** total wall time across invocations *)
  pr_delta : Instrument.counts;
      (** summed per-invocation deltas: instruction/block counts and
          debug-info line/variable coverage *)
}

val profiles : session -> pass_profile list
(** Per-pass profiles in first-execution order. *)

(** {1 Exporters} *)

val to_chrome_json : session -> string
(** The Chrome [trace_event] JSON document ([{"traceEvents": [...]}]),
    loadable in [chrome://tracing] / Perfetto; timestamps in
    microseconds relative to session start. *)

type self_row = {
  sr_name : string;
  sr_calls : int;
  sr_total_ns : int64;
  sr_self_ns : int64;  (** total minus time spent in nested spans *)
}

val self_times : session -> self_row list
(** Per-name self times, sorted descending. *)

val self_time_report : session -> string
(** {!self_times} rendered as a text table. *)

(** {1 Validation} *)

type validation = {
  v_events : int;  (** events checked (metadata excluded) *)
  v_spans : (string * int) list;
      (** per-name span counts ([B] and [X] events), sorted *)
}

val validate_chrome : string -> (validation, string) result
(** Check a Chrome [trace_event] document: well-formed JSON, every event
    carries a string name, a [ph] of B/E/X/M, a non-negative numeric
    [ts] (and [dur] for X), and per-[(pid, tid)] lane the B/E events
    nest and balance. *)
