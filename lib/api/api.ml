(** The one typed Request/Response API every front-end dispatches
    through.

    A {!Request.t} is a serializable description of one unit of work —
    exactly what a CLI invocation's flags encode today: a subject
    program, a {!Config.t}, and per-kind options. {!execute} turns a
    request into a {!Response.t}: a status, the canonical rendered
    report (the bytes the CLI prints), an optional secondary artifact
    (a trace JSON, an AutoFDO profile), and the request's own counter
    rows (its {!Util.Counters} scope, named as in
    {!Measure_engine.stats_table}). The CLI is one transport
    over this module (parse flags, execute, print); the
    [debugtuner serve] daemon ([Api_server]) is a second one
    (length-prefixed JSON over a Unix socket, see [Framing]) — both
    produce byte-identical output for the same request, asserted in
    ci.sh.

    The JSON codecs are canonical (fixed field order, no whitespace),
    stamped with {!version}, tolerate unknown fields on decode, and
    reject documents stamped with any other version. *)

module Config = Debugtuner.Config
module Measure_engine = Debugtuner.Measure_engine
module Evaluation = Debugtuner.Evaluation
module Experiments = Debugtuner.Experiments
module Toolchain = Debugtuner.Toolchain
module Ranking = Debugtuner.Ranking
module Tuning = Debugtuner.Tuning
module Autofdo = Debugtuner.Autofdo
module Value_oracle = Debugtuner.Value_oracle

let version = 1

(* ------------------------------------------------------------------ *)
(* Jobs: the sharded corpus-experiment description                      *)

(** A complete, serializable description of one corpus-experiment run —
    what to measure (corpus spec + configuration set), what to render
    (table selection), and which slice of the work this process owns
    (shard spec). The same job value drives every front-end: the CLI
    runs it in-process, [--connect] ships it to the daemon, the bench
    harness and the shard workers build it programmatically. Because
    the whole description travels in the request, [n] workers given the
    same job (with different shard indices) partition the identical
    corpus without any other coordination channel. *)
module Job = struct
  type t = {
    j_tables : string list;
        (** which final tables to render ({!table_names}); [[]] = all.
            Ignored by sharded runs, which return rows, not tables. *)
    j_seed : int;  (** corpus generator seed *)
    j_corpus : int;  (** corpus size (number of programs) *)
    j_configs : Config.t list;
        (** configurations to measure, in presentation order;
            [[]] = the standard set ({!Experiments.all_standard_configs}) *)
    j_shard : (int * int) option;
        (** [Some (i, n)]: run only shard [i] of [n] (1-based,
            [1 <= i <= n]) and return a {!Partial.t} instead of tables *)
  }

  let table_names = [ "summary"; "families" ]
  (** The renderable corpus tables, in {!Experiments.corpus_tables}
      order. *)

  let make ?(tables = []) ?(configs = []) ?shard ~seed ~corpus () =
    { j_tables = tables; j_seed = seed; j_corpus = corpus;
      j_configs = configs; j_shard = shard }
end

(** One shard's result: the row fragment it computed plus everything
    needed to validate a merge (corpus identity, shard arithmetic,
    configuration order). This is at once the [Response] payload of a
    sharded [Experiments] request, the element type of a [Merge]
    request, and — via {!partial_to_json} — the canonical partial-file
    format shard workers leave in [--partial-dir]. *)
module Partial = struct
  type t = {
    pt_shard : int;  (** this shard's 1-based index *)
    pt_shards : int;  (** total shard count *)
    pt_seed : int;
    pt_corpus : int;  (** the job's corpus spec, echoed *)
    pt_digest : string;
        (** {!Experiments.corpus_digest} — merge refuses partials that
            disagree, or that disagree with this build's generator *)
    pt_configs : string list;  (** {!Config.name}s in presentation order *)
    pt_programs : int;  (** corpus entries this shard measured *)
    pt_rows : Experiments.corpus_row list;
  }
end

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

module Request = struct
  (** What to operate on. File I/O stays in the transport: a CLI path
      argument is read client-side into [Inline], so the daemon never
      touches a client's filesystem. *)
  type subject =
    | Named of string  (** a built-in suite / SPEC / selfcomp program *)
    | Inline of { in_name : string; in_source : string }

  (** The compile-family sub-modes: everything derived from one
      compiled binary (the CLI's compile/measure/dump/verify/disasm/
      dwarf-size/passes/pass-trace/trace/debug/sample/value-check). *)
  type view =
    | Summary
    | Measure
    | Dump of string list  (** sections; [[]] = all *)
    | Verify
    | Disasm of string option
    | Dwarf_size
    | Passes
    | Pass_trace
    | Trace of { t_entry : string option; t_input : int list }
    | Debug of { d_entry : string option; d_commands : string list }
    | Sample of { s_entry : string option; s_period : int }
    | Value_check of { v_entry : string option; v_input : int list }

  type bench_action =
    | Exec of { x_entry : string; x_input : int list }
    | Cost

  type cache_action = Op_stats | Op_clear | Op_gc

  type stats_what = Counters | Suite | Server

  type t =
    | Compile of {
        c_subject : subject;
        c_config : Config.t;
        c_profile : string option;  (** AutoFDO text profile, inline *)
        c_sanitize : bool;
        c_view : view;
      }
    | Rank of { r_config : Config.t; r_k : int }
    | Tune of { t_config : Config.t; t_y : int }
    | Search of {
        se_config : Config.t;  (** the base level whose 2^N space to search *)
        se_strategy : Tuning.strategy;
        se_budget : int;
        se_seed : int;
        se_debug_weight : float;
        se_speed_weight : float;
      }
    | Check of {
        k_subject : subject option;
        k_fuzz : int;
        k_seed : int;
        k_suite : bool;
      }
    | Profile of {
        p_subject : subject;
        p_config : Config.t;
        p_sanitize : bool;
        p_stats : bool;
        p_trace : bool;  (** capture a Chrome trace as the artifact *)
      }
    | Bench of {
        b_subject : subject;
        b_config : Config.t;
        b_action : bench_action;
      }
    | Cache_op of { o_action : cache_action; o_dir : string option }
    | Stats of { s_what : stats_what }
    | Experiments of { e_job : Job.t }
        (** run a corpus-experiment job (or one shard of it) *)
    | Merge of { m_partials : Partial.t list }
        (** fold a complete set of shard partials into the final
            tables — byte-identical to the unsharded run *)

  let subject_name = function
    | Named n -> n
    | Inline { in_name; _ } -> in_name
end

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

module Response = struct
  type status = Ok | Error of string | Overloaded

  (** The typed result payload, for clients that want structure rather
      than the rendered [text]. *)
  type data =
    | D_none
    | D_compiled of {
        dc_program : string;
        dc_config : string;
        dc_instrs : int;
        dc_funcs : int;
        dc_text_digest : string;
      }
    | D_ranked of {
        dr_config : string;
        dr_top : (string * float * float) list;
            (** pass, +% geomean increment, average rank *)
      }
    | D_tuned of {
        dt_config : string;
        dt_disabled : string list;
        dt_debug : float;
        dt_speedup : float;
      }
    | D_frontier of {
        df_config : string;  (** base level searched *)
        df_strategy : string;
        df_seed : int;
        df_budget : int;
        df_evaluated : int;
        df_dominated : int;
        df_front : (string * float * float) list;
            (** config name, debug product, speedup — the Pareto front,
                sorted by (debug, speedup, name) *)
      }
    | D_checked of {
        dk_programs : int;
        dk_configs : int;
        dk_runs : int;
        dk_skipped : int;
        dk_failures : int;
      }
    | D_cost of int
    | D_counters of (string * int) list
    | D_partial of Partial.t
        (** a sharded [Experiments] run's typed result fragment *)

  type t = {
    status : status;
    text : string;
        (** canonical rendering — exactly what the CLI prints on stdout *)
    artifact : string option;
        (** secondary document (trace JSON, AutoFDO profile text); the
            transport decides where it goes ([-o FILE], stdout, ...) *)
    data : data;
    stats : (string * int) list;
        (** this request's own counter rows (named as in
            {!Measure_engine.stats_table}), read from its
            {!Util.Counters} scope — so concurrent requests never
            count each other's work *)
    exit_code : int;
  }

  let ok ?(artifact = None) ?(data = D_none) ?(exit_code = 0) text stats =
    { status = Ok; text; artifact; data; stats; exit_code }
end

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                         *)

module J = Util.Json

exception Decode_error of string

(** Every wire type is declared once, in the small vocabulary below,
    and both directions come from that declaration: [enc] writes the
    canonical document, [dec] reads it back. An object lists its
    members with [**] in wire order. Decoding looks members up by key,
    so unknown fields are ignored; an absent member decodes as [null],
    so [nullable] members may be omitted while any other absent or
    mistyped member fails with ["missing field"]. *)
module Codec = struct
  type 'a t = { enc : 'a -> J.t; dec : J.t -> 'a }

  let dfail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

  (* A value of the wrong JSON type; the enclosing member reports it. *)
  exception Mistyped

  let scalar enc proj =
    { enc; dec = (fun j -> match proj j with Some v -> v | None -> raise Mistyped) }

  let str = scalar (fun s -> J.Str s) J.str
  let int = scalar (fun i -> J.Num (float_of_int i)) J.int
  let float = scalar (fun f -> J.Num f) J.num
  let bool = scalar (fun b -> J.Bool b) J.bool

  let list c =
    {
      enc = (fun l -> J.Arr (List.map c.enc l));
      dec = (function J.Arr l -> List.map c.dec l | _ -> raise Mistyped);
    }

  let nullable c =
    {
      enc = (function None -> J.Null | Some v -> c.enc v);
      dec = (function J.Null -> None | j -> Some (c.dec j));
    }

  (** A string enumeration; [what] names it in decode errors. *)
  let enum ~what name parse =
    {
      enc = (fun v -> J.Str (name v));
      dec =
        (fun j ->
          let s = str.dec j in
          match parse s with Some v -> v | None -> dfail "unknown %s %S" what s);
    }

  let table ~what tbl =
    enum ~what (fun v -> fst (List.find (fun (_, v') -> v' = v) tbl)) (fun s ->
        List.assoc_opt s tbl)

  (** [c], refusing decoded values that [check] rejects (by raising). *)
  let checked c check = { c with dec = (fun j -> let v = c.dec j in check v; v) }

  (* An object's members: [put] prepends the encoded fields, [get]
     decodes them from the object, first member first. *)
  type 'a members = {
    put : 'a -> (string * J.t) list -> (string * J.t) list;
    get : J.t -> 'a;
  }

  let mem key c =
    {
      put = (fun v rest -> (key, c.enc v) :: rest);
      get =
        (fun j ->
          try c.dec (Option.value ~default:J.Null (J.field key j))
          with Mistyped -> dfail "missing field %S" key);
    }

  let ( ** ) a b =
    {
      put = (fun (x, y) rest -> a.put x (b.put y rest));
      get = (fun j -> let x = a.get j in (x, b.get j));
    }

  let need_obj = function J.Obj _ as j -> j | _ -> raise Mistyped

  (** A record: its members, and the conversions between the record and
      their right-nested tuple. *)
  let obj m inj proj =
    { enc = (fun v -> J.Obj (m.put (proj v) [])); dec = (fun j -> inj (m.get (need_obj j))) }

  let pair m = obj m Fun.id Fun.id

  type 'a case = Case : string * 'b members * ('b -> 'a) * ('a -> 'b option) -> 'a case

  let case tag m inj proj = Case (tag, m, inj, proj)

  let const tag v =
    let none = { put = (fun () rest -> rest); get = ignore } in
    case tag none (fun () -> v) (fun x -> if x = v then Some () else None)

  (** A ["kind"]-tagged union: the tag, then the matching case's members. *)
  let union ~what cases =
    let kind = mem "kind" str in
    {
      enc =
        (fun v ->
          Option.get
            (List.find_map
               (fun (Case (tag, m, _, proj)) ->
                 Option.map (fun b -> J.Obj (("kind", J.Str tag) :: m.put b [])) (proj v))
               cases));
      dec =
        (fun j ->
          let tag = kind.get (need_obj j) in
          match List.find_opt (fun (Case (t, _, _, _)) -> t = tag) cases with
          | Some (Case (_, m, inj, _)) -> inj (m.get j)
          | None -> dfail "unknown %s %S" what tag);
    }

  (** Top-level documents carry the version stamp first and refuse any
      other version. *)
  let stamped c =
    {
      enc =
        (fun v ->
          match c.enc v with
          | J.Obj fields -> J.Obj (("v", J.Num (float_of_int version)) :: fields)
          | j -> j);
      dec =
        (fun j ->
          (match J.field "v" j with
          | Some (J.Num f) when int_of_float f = version -> ()
          | Some (J.Num f) ->
              dfail "unsupported api version %d (this build speaks %d)" (int_of_float f)
                version
          | _ -> dfail "missing version stamp \"v\"");
          c.dec j);
    }

  (* -- the wire types -- *)

  let config =
    obj
      (mem "compiler" (enum ~what:"compiler" Config.compiler_name Config.compiler_of_string)
      ** mem "level" (enum ~what:"level" Config.level_name Config.level_of_string)
      ** mem "disabled" (list str))
      (fun (c, (l, disabled)) -> Config.make ~disabled c l)
      (fun c -> Config.(c.compiler, (c.level, c.disabled)))

  let strategy = enum ~what:"search strategy" Tuning.strategy_name Tuning.strategy_of_string

  (* A named subject has no "source" member at all. *)
  let subject =
    let c = pair (mem "name" str ** mem "source" (nullable str)) in
    {
      enc =
        (function
        | Request.Named n -> J.Obj [ ("name", J.Str n) ]
        | Request.Inline { in_name; in_source } -> c.enc (in_name, Some in_source));
      dec =
        (fun j ->
          match c.dec j with
          | n, None -> Request.Named n
          | in_name, Some in_source -> Request.Inline { in_name; in_source });
    }

  let entry = mem "entry" (nullable str)
  let input = mem "input" (list int)

  let view =
    Request.(
      union ~what:"view kind"
        [
          const "summary" Summary;
          const "measure" Measure;
          case "dump" (mem "sections" (list str))
            (fun s -> Dump s)
            (function Dump s -> Some s | _ -> None);
          const "verify" Verify;
          case "disasm" (mem "func" (nullable str))
            (fun f -> Disasm f)
            (function Disasm f -> Some f | _ -> None);
          const "dwarf-size" Dwarf_size;
          const "passes" Passes;
          const "pass-trace" Pass_trace;
          case "trace" (entry ** input)
            (fun (t_entry, t_input) -> Trace { t_entry; t_input })
            (function Trace { t_entry; t_input } -> Some (t_entry, t_input) | _ -> None);
          case "debug" (entry ** mem "commands" (list str))
            (fun (d_entry, d_commands) -> Debug { d_entry; d_commands })
            (function Debug { d_entry; d_commands } -> Some (d_entry, d_commands) | _ -> None);
          case "sample" (entry ** mem "period" int)
            (fun (s_entry, s_period) -> Sample { s_entry; s_period })
            (function Sample { s_entry; s_period } -> Some (s_entry, s_period) | _ -> None);
          case "value-check" (entry ** input)
            (fun (v_entry, v_input) -> Value_check { v_entry; v_input })
            (function Value_check { v_entry; v_input } -> Some (v_entry, v_input) | _ -> None);
        ])

  let shard =
    checked (pair (mem "index" int ** mem "count" int)) (fun (i, n) ->
        if not (1 <= i && i <= n) then
          dfail "invalid shard %d/%d (need 1 <= index <= count)" i n)

  let job =
    obj
      (mem "tables" (list str) ** mem "seed" int ** mem "corpus" int
      ** mem "configs" (list config) ** mem "shard" (nullable shard))
      (fun (j_tables, (j_seed, (j_corpus, (j_configs, j_shard)))) ->
        { Job.j_tables; j_seed; j_corpus; j_configs; j_shard })
      (fun j -> Job.(j.j_tables, (j.j_seed, (j.j_corpus, (j.j_configs, j.j_shard)))))

  (* Metric fields round-trip exactly: the canonical writer prints
     non-integral floats with %.17g, so a merge of JSON-decoded rows
     renders byte-identically to the single-process run. *)
  let corpus_row =
    obj
      (mem "index" int ** mem "program" str ** mem "family" str ** mem "config" str
      ** mem "avail" float ** mem "cov" float ** mem "product" float)
      (fun (cr_index, (cr_program, (cr_family, (cr_config, (cr_avail, (cr_cov, cr_product)))))) ->
        Experiments.{ cr_index; cr_program; cr_family; cr_config; cr_avail; cr_cov; cr_product })
      (fun r ->
        Experiments.(
          (r.cr_index, (r.cr_program, (r.cr_family, (r.cr_config, (r.cr_avail, (r.cr_cov,
            r.cr_product))))))))

  (* The partial carries its own version stamp: the same document is a
     standalone file in --partial-dir, so it must self-describe like
     any top-level request/response. *)
  let partial =
    stamped
      (checked
         (obj
            (mem "shard" int ** mem "shards" int ** mem "seed" int ** mem "corpus" int
            ** mem "digest" str ** mem "configs" (list str) ** mem "programs" int
            ** mem "rows" (list corpus_row))
            (fun (pt_shard, (pt_shards, (pt_seed, (pt_corpus, (pt_digest, (pt_configs,
                 (pt_programs, pt_rows)))))))  ->
              Partial.{ pt_shard; pt_shards; pt_seed; pt_corpus; pt_digest; pt_configs;
                        pt_programs; pt_rows })
            (fun p ->
              Partial.(p.pt_shard, (p.pt_shards, (p.pt_seed, (p.pt_corpus, (p.pt_digest,
                (p.pt_configs, (p.pt_programs, p.pt_rows)))))))))
         (fun p ->
           if not (1 <= p.pt_shard && p.pt_shard <= p.pt_shards) then
             dfail "invalid partial shard %d/%d (need 1 <= shard <= shards)" p.pt_shard
               p.pt_shards))

  let request =
    Request.(
      stamped
        (union ~what:"request kind"
           [
             case "compile"
               (mem "subject" subject ** mem "config" config ** mem "profile" (nullable str)
               ** mem "sanitize" bool ** mem "view" view)
               (fun (c_subject, (c_config, (c_profile, (c_sanitize, c_view)))) ->
                 Compile { c_subject; c_config; c_profile; c_sanitize; c_view })
               (function
                 | Compile { c_subject; c_config; c_profile; c_sanitize; c_view } ->
                     Some (c_subject, (c_config, (c_profile, (c_sanitize, c_view))))
                 | _ -> None);
             case "rank" (mem "config" config ** mem "k" int)
               (fun (r_config, r_k) -> Rank { r_config; r_k })
               (function Rank { r_config; r_k } -> Some (r_config, r_k) | _ -> None);
             case "tune" (mem "config" config ** mem "y" int)
               (fun (t_config, t_y) -> Tune { t_config; t_y })
               (function Tune { t_config; t_y } -> Some (t_config, t_y) | _ -> None);
             case "search"
               (mem "config" config ** mem "strategy" strategy ** mem "budget" int
               ** mem "seed" int ** mem "debug_weight" float ** mem "speed_weight" float)
               (fun (se_config, (se_strategy, (se_budget, (se_seed, (se_debug_weight,
                    se_speed_weight))))) ->
                 Search
                   { se_config; se_strategy; se_budget; se_seed; se_debug_weight;
                     se_speed_weight })
               (function
                 | Search
                     { se_config; se_strategy; se_budget; se_seed; se_debug_weight;
                       se_speed_weight } ->
                     Some (se_config, (se_strategy, (se_budget, (se_seed, (se_debug_weight,
                       se_speed_weight)))))
                 | _ -> None);
             case "check"
               (mem "subject" (nullable subject) ** mem "fuzz" int ** mem "seed" int
               ** mem "suite" bool)
               (fun (k_subject, (k_fuzz, (k_seed, k_suite))) ->
                 Check { k_subject; k_fuzz; k_seed; k_suite })
               (function
                 | Check { k_subject; k_fuzz; k_seed; k_suite } ->
                     Some (k_subject, (k_fuzz, (k_seed, k_suite)))
                 | _ -> None);
             case "profile"
               (mem "subject" subject ** mem "config" config ** mem "sanitize" bool
               ** mem "stats" bool ** mem "trace" bool)
               (fun (p_subject, (p_config, (p_sanitize, (p_stats, p_trace)))) ->
                 Profile { p_subject; p_config; p_sanitize; p_stats; p_trace })
               (function
                 | Profile { p_subject; p_config; p_sanitize; p_stats; p_trace } ->
                     Some (p_subject, (p_config, (p_sanitize, (p_stats, p_trace))))
                 | _ -> None);
             case "bench"
               (mem "subject" subject ** mem "config" config
               ** mem "action"
                    (union ~what:"bench action"
                       [
                         const "cost" Cost;
                         case "exec" (mem "entry" str ** input)
                           (fun (x_entry, x_input) -> Exec { x_entry; x_input })
                           (function
                             | Exec { x_entry; x_input } -> Some (x_entry, x_input)
                             | Cost -> None);
                       ]))
               (fun (b_subject, (b_config, b_action)) -> Bench { b_subject; b_config; b_action })
               (function
                 | Bench { b_subject; b_config; b_action } -> Some (b_subject, (b_config, b_action))
                 | _ -> None);
             case "cache"
               (mem "op"
                  (table ~what:"cache op"
                     [ ("stats", Op_stats); ("clear", Op_clear); ("gc", Op_gc) ])
               ** mem "dir" (nullable str))
               (fun (o_action, o_dir) -> Cache_op { o_action; o_dir })
               (function Cache_op { o_action; o_dir } -> Some (o_action, o_dir) | _ -> None);
             case "stats"
               (mem "what"
                  (table ~what:"stats selector"
                     [ ("counters", Counters); ("suite", Suite); ("server", Server) ]))
               (fun s_what -> Stats { s_what })
               (function Stats { s_what } -> Some s_what | _ -> None);
             case "experiments" (mem "job" job)
               (fun e_job -> Experiments { e_job })
               (function Experiments { e_job } -> Some e_job | _ -> None);
             case "merge" (mem "partials" (list partial))
               (fun m_partials -> Merge { m_partials })
               (function Merge { m_partials } -> Some m_partials | _ -> None);
           ]))

  let stats = list (pair (mem "name" str ** mem "value" int))

  let rows3 (k1, c1) (k2, c2) (k3, c3) =
    list
      (obj (mem k1 c1 ** mem k2 c2 ** mem k3 c3)
         (fun (a, (b, c)) -> (a, b, c))
         (fun (a, b, c) -> (a, (b, c))))

  let data =
    Response.(
      union ~what:"data kind"
        [
          const "none" D_none;
          case "compiled"
            (mem "program" str ** mem "config" str ** mem "instrs" int ** mem "funcs" int
            ** mem "text_digest" str)
            (fun (dc_program, (dc_config, (dc_instrs, (dc_funcs, dc_text_digest)))) ->
              D_compiled { dc_program; dc_config; dc_instrs; dc_funcs; dc_text_digest })
            (function
              | D_compiled { dc_program; dc_config; dc_instrs; dc_funcs; dc_text_digest } ->
                  Some (dc_program, (dc_config, (dc_instrs, (dc_funcs, dc_text_digest))))
              | _ -> None);
          case "ranked"
            (mem "config" str ** mem "top" (rows3 ("pass", str) ("pct", float) ("rank", float)))
            (fun (dr_config, dr_top) -> D_ranked { dr_config; dr_top })
            (function D_ranked { dr_config; dr_top } -> Some (dr_config, dr_top) | _ -> None);
          case "tuned"
            (mem "config" str ** mem "disabled" (list str) ** mem "debug" float
            ** mem "speedup" float)
            (fun (dt_config, (dt_disabled, (dt_debug, dt_speedup))) ->
              D_tuned { dt_config; dt_disabled; dt_debug; dt_speedup })
            (function
              | D_tuned { dt_config; dt_disabled; dt_debug; dt_speedup } ->
                  Some (dt_config, (dt_disabled, (dt_debug, dt_speedup)))
              | _ -> None);
          case "frontier"
            (mem "config" str ** mem "strategy" str ** mem "seed" int ** mem "budget" int
            ** mem "evaluated" int ** mem "dominated" int
            ** mem "front" (rows3 ("name", str) ("debug", float) ("speedup", float)))
            (fun (df_config, (df_strategy, (df_seed, (df_budget, (df_evaluated, (df_dominated,
                 df_front)))))) ->
              D_frontier
                { df_config; df_strategy; df_seed; df_budget; df_evaluated; df_dominated;
                  df_front })
            (function
              | D_frontier
                  { df_config; df_strategy; df_seed; df_budget; df_evaluated; df_dominated;
                    df_front } ->
                  Some (df_config, (df_strategy, (df_seed, (df_budget, (df_evaluated,
                    (df_dominated, df_front))))))
              | _ -> None);
          case "checked"
            (mem "programs" int ** mem "configs" int ** mem "runs" int ** mem "skipped" int
            ** mem "failures" int)
            (fun (dk_programs, (dk_configs, (dk_runs, (dk_skipped, dk_failures)))) ->
              D_checked { dk_programs; dk_configs; dk_runs; dk_skipped; dk_failures })
            (function
              | D_checked { dk_programs; dk_configs; dk_runs; dk_skipped; dk_failures } ->
                  Some (dk_programs, (dk_configs, (dk_runs, (dk_skipped, dk_failures))))
              | _ -> None);
          case "cost" (mem "cost" int) (fun c -> D_cost c) (function
            | D_cost c -> Some c | _ -> None);
          case "counters" (mem "rows" stats) (fun rows -> D_counters rows) (function
            | D_counters rows -> Some rows | _ -> None);
          case "partial" (mem "partial" partial) (fun p -> D_partial p) (function
            | D_partial p -> Some p | _ -> None);
        ])

  let status =
    let error = mem "error" str in
    Response.
      {
        enc =
          (function
          | Ok -> J.Str "ok"
          | Overloaded -> J.Str "overloaded"
          | Error msg -> J.Obj (error.put msg []));
        dec =
          (function
          | J.Str "ok" -> Ok
          | J.Str "overloaded" -> Overloaded
          | J.Obj _ as o -> Error (error.get o)
          | J.Null -> raise Mistyped
          | _ -> dfail "bad status");
      }

  let response =
    stamped
      (obj
         (mem "status" status ** mem "exit" int ** mem "text" str
         ** mem "artifact" (nullable str) ** mem "data" data ** mem "stats" stats)
         (fun (status, (exit_code, (text, (artifact, (data, stats))))) ->
           { Response.status; exit_code; text; artifact; data; stats })
         (fun r -> Response.(r.status, (r.exit_code, (r.text, (r.artifact, (r.data, r.stats)))))))

  (* The search frontier artifact; see {!frontier_json}. *)
  let frontier =
    let point =
      obj
        (mem "name" str ** mem "config" config ** mem "debug" float ** mem "speedup" float)
        (fun (_, (fp_config, (fp_debug, fp_speedup))) -> Tuning.{ fp_config; fp_debug; fp_speedup })
        (fun f -> Tuning.(Config.name f.fp_config, (f.fp_config, (f.fp_debug, f.fp_speedup))))
    in
    stamped
      (union ~what:"artifact kind"
         [
           case "frontier"
             (mem "base" str ** mem "strategy" strategy ** mem "seed" int ** mem "budget" int
             ** mem "evaluated" int ** mem "dominated" int ** mem "frontier" (list point))
             Fun.id Option.some;
         ])
end

let decode (c : _ Codec.t) text =
  match c.dec (J.parse text) with
  | v -> Ok v
  | exception Decode_error msg -> Error msg
  | exception J.Parse_error msg -> Error ("malformed JSON: " ^ msg)

let request_to_json r = J.to_string (Codec.request.enc r)
let request_of_json text = decode Codec.request text
let response_to_json r = J.to_string (Codec.response.enc r)
let response_of_json text = decode Codec.response text

let partial_to_json p = J.to_string (Codec.partial.enc p)
(** The canonical shard-partial file format ([--partial-dir]). *)

let partial_of_json text = decode Codec.partial text

(* ------------------------------------------------------------------ *)
(* Execution context                                                   *)

(** One context per process: the shared measurement engine, the
    optional persistent store behind it, and the prepared-subject cache.
    The daemon keeps a single context alive across every client, so the
    millionth request hits warm memo tables; the CLI builds one per
    invocation.

    {!execute} is safe to call from many threads (or executor domains)
    at once on a shared context: the engine's memo tables and the disk
    store are domain-safe by construction, per-request counters come
    from a {!Util.Counters} scope per request rather than global
    snapshots, and the two remaining serialization points
    are narrow — [prepared_mu] guards the prepared-subject cache, and a
    global mutex serializes [profile] requests (the [Obs] session is
    process-wide). *)
type ctx = {
  engine : Measure_engine.t;
  store : Engine.Disk_store.t option;
  prepared : (string, Evaluation.prepared) Hashtbl.t;
  prepared_mu : Mutex.t;
}

let create_ctx ?(workers = 1) ?store () =
  {
    engine = Measure_engine.create ~workers ?store ();
    store;
    prepared = Hashtbl.create 16;
    prepared_mu = Mutex.create ();
  }

(** Server-introspection hook: [Api_server] installs its live counters
    here so a [Stats Server] request can be answered without a
    dependency cycle. *)
let server_counters_hook : (unit -> (string * int) list) ref = ref (fun () -> [])

(* ------------------------------------------------------------------ *)
(* Executors (the former CLI subcommand bodies, rendering to buffers)  *)

let bpf = Printf.bprintf

let subject_program (s : Request.subject) : Suite_types.sprogram =
  match s with
  | Request.Inline { in_name; in_source } ->
      let ast = Minic.Typecheck.parse_and_check in_source in
      let entry =
        match Minic.Ast.find_func ast "main" with
        | Some _ -> "main"
        | None -> failwith "MiniC source must define main()"
      in
      {
        Suite_types.p_name = in_name;
        p_source = in_source;
        p_harnesses =
          [ { Suite_types.h_name = "main"; h_entry = entry; h_seeds = [ [] ] } ];
      }
  | Request.Named name -> (
      match
        List.find_opt (fun p -> p.Suite_types.p_name = name) Programs.all
      with
      | Some p -> p
      | None -> (
          match
            List.find_opt (fun p -> p.Suite_types.p_name = name) Spec.all
          with
          | Some p -> p
          | None ->
              if name = "selfcomp" then Selfcomp.program
              else failwith ("unknown program " ^ name)))

(** Prepared subjects are expensive (fuzzing-derived corpora); cache
    them per context so warm daemon requests skip preparation. The
    preparation runs outside the mutex — concurrent requests preparing
    *different* subjects proceed in parallel; a race on the same subject
    computes twice (deterministically, so both agree) and the first
    insert wins, preserving physical sharing for every later reader. *)
let prepared_of ctx (p : Suite_types.sprogram) =
  let key = Evaluation.prepare_key p in
  let lookup () =
    Mutex.lock ctx.prepared_mu;
    let r = Hashtbl.find_opt ctx.prepared key in
    Mutex.unlock ctx.prepared_mu;
    r
  in
  match lookup () with
  | Some pr -> pr
  | None -> (
      let pr = Evaluation.prepare p in
      Mutex.lock ctx.prepared_mu;
      match Hashtbl.find_opt ctx.prepared key with
      | Some winner ->
          Mutex.unlock ctx.prepared_mu;
          winner
      | None ->
          Hashtbl.replace ctx.prepared key pr;
          Mutex.unlock ctx.prepared_mu;
          pr)

let prepared_suite ctx = List.map (prepared_of ctx) Programs.all

(** Plain compiles (default options) are cached in the engine's
    bench-compile tier, so a warm daemon serves repeated views of the
    same (program, config) without recompiling. Sanitized or
    profile-fed compiles run straight — their side effects are the
    point. *)
let compile_subject ctx (p : Suite_types.sprogram) (cfg : Config.t)
    ~(profile : string option) ~(sanitize : bool) : Emit.binary =
  let straight () =
    let profile = Option.map Autofdo.profile_of_string profile in
    Toolchain.compile
      ~options:(Toolchain.Options.make ?profile ~sanitize ())
      (Suite_types.ast p) ~config:cfg ~roots:(Suite_types.roots p)
  in
  if profile = None && not sanitize then
    match Measure_engine.peek_bench_compile ctx.engine p cfg with
    | Some bin -> bin
    | None -> Measure_engine.seed_bench_compile ctx.engine p cfg straight
  else straight ()

let default_entry (p : Suite_types.sprogram) = function
  | Some e -> e
  | None -> (List.hd p.Suite_types.p_harnesses).Suite_types.h_entry

(* -- compile-family views -- *)

let exec_summary b (p : Suite_types.sprogram) cfg (bin : Emit.binary) =
  bpf b "%s at %s\n" p.Suite_types.p_name (Config.name cfg);
  bpf b "  code: %d instructions, %d functions\n"
    (Array.length bin.Emit.code)
    (Array.length bin.Emit.funcs);
  bpf b "  line table: %d entries, %d steppable lines\n"
    (List.length bin.Emit.debug.Dwarfish.line_table)
    (List.length (Dwarfish.steppable_lines bin.Emit.debug));
  bpf b "  variables with location info: %d\n"
    (List.length bin.Emit.debug.Dwarfish.vars);
  bpf b "  .text digest: %s\n" bin.Emit.text_digest;
  Response.D_compiled
    {
      dc_program = p.Suite_types.p_name;
      dc_config = Config.name cfg;
      dc_instrs = Array.length bin.Emit.code;
      dc_funcs = Array.length bin.Emit.funcs;
      dc_text_digest = bin.Emit.text_digest;
    }

let exec_measure ctx b (p : Suite_types.sprogram) cfg =
  let prepared = prepared_of ctx p in
  let m, _ = Measure_engine.measure ctx.engine prepared cfg in
  bpf b "%s at %s (vs the O0 baseline)\n" p.Suite_types.p_name (Config.name cfg);
  let show name (s : Metrics.score) =
    bpf b "  %-10s availability=%.4f line-coverage=%.4f product=%.4f\n" name
      s.Metrics.availability s.Metrics.line_coverage s.Metrics.product
  in
  show "static" m.Metrics.m_static;
  show "static-dbg" m.Metrics.m_static_dbg;
  show "dynamic" m.Metrics.m_dynamic;
  show "hybrid" m.Metrics.m_hybrid

let exec_dump b (p : Suite_types.sprogram) cfg bin sections =
  let sections =
    match sections with
    | [] -> Dwarfdump.all_sections
    | names ->
        List.map
          (fun n ->
            match Dwarfdump.section_of_string n with
            | Some s -> s
            | None -> failwith ("unknown section " ^ n))
          names
  in
  bpf b "%s at %s: %s\n\n" p.Suite_types.p_name (Config.name cfg)
    (Dwarfdump.summary bin);
  Buffer.add_string b (Dwarfdump.dump ~sections bin);
  Buffer.add_char b '\n';
  Buffer.add_string b (Dwarfdump.locstats_to_string (Dwarfdump.locstats bin))

let exec_verify b (p : Suite_types.sprogram) cfg bin =
  let ds = Debug_verify.verify bin in
  bpf b "%s at %s: %s" p.Suite_types.p_name (Config.name cfg)
    (Debug_verify.report ds);
  if ds <> [] then 1 else 0

let exec_dwarf_size b (p : Suite_types.sprogram) (cfg : Config.t) =
  let ast = Suite_types.ast p in
  bpf b "%-8s %12s %12s %12s %8s %8s\n" "level" ".debug_line" ".debug_loc"
    "total" "entries" "vars";
  List.iter
    (fun level ->
      let lcfg = Config.make cfg.Config.compiler level in
      let bin =
        Toolchain.compile ast ~config:lcfg ~roots:(Suite_types.roots p)
      in
      let line, locs, total = Dwarf_encode.section_sizes bin.Emit.debug in
      bpf b "%-8s %11dB %11dB %11dB %8d %8d\n" (Config.level_name level) line
        locs total
        (List.length bin.Emit.debug.Dwarfish.line_table)
        (List.length bin.Emit.debug.Dwarfish.vars))
    (Config.O0 :: Config.standard_levels cfg.Config.compiler)

let exec_pass_trace b (p : Suite_types.sprogram) cfg =
  let trace =
    Toolchain.pipeline_trace (Suite_types.ast p) ~config:cfg
      ~roots:(Suite_types.roots p)
  in
  bpf b "%-28s %8s %7s %9s %9s %6s\n" "pass" "instrs" "blocks" "bindings"
    "opt-out" "lines";
  let prev = ref None in
  List.iter
    (fun (name, (st : Toolchain.ir_stats)) ->
      let delta get =
        match !prev with
        | Some p when get p <> get st -> Printf.sprintf "%+d" (get st - get p)
        | _ -> ""
      in
      bpf b "%-28s %5d %2s %4d %2s %6d %2s %6d %2s %4d %2s\n" name
        st.Toolchain.st_instrs
        (delta (fun s -> s.Toolchain.st_instrs))
        st.Toolchain.st_blocks
        (delta (fun s -> s.Toolchain.st_blocks))
        st.Toolchain.st_bindings
        (delta (fun s -> s.Toolchain.st_bindings))
        st.Toolchain.st_optimized_out
        (delta (fun s -> s.Toolchain.st_optimized_out))
        st.Toolchain.st_lines
        (delta (fun s -> s.Toolchain.st_lines));
      prev := Some st)
    trace

let exec_trace (p : Suite_types.sprogram) bin entry input =
  let entry = default_entry p entry in
  let t = Debugger.trace bin ~entry ~inputs:[ input ] in
  Trace_json.to_string t

let exec_debug b (p : Suite_types.sprogram) bin entry commands =
  let entry = default_entry p entry in
  if commands = [] then
    Buffer.add_string b
      "no commands; pass them positionally or via -x FILE (commands: \
       break/tbreak/delete L, run [inputs], continue, step, next, finish, \
       print VAR, info locals|line|breakpoints, backtrace, quit)\n"
  else Buffer.add_string b (Session.script bin ~entry commands)

let exec_sample b (p : Suite_types.sprogram) cfg bin entry period =
  let entry = default_entry p entry in
  let workloads =
    List.concat_map (fun h -> h.Suite_types.h_seeds) p.Suite_types.p_harnesses
  in
  let coll = Autofdo.collect bin ~entry ~workloads ~period ~seed:7 in
  let text = Autofdo.profile_to_string coll.Autofdo.profile in
  bpf b
    "profiled %s at %s: %d samples taken, %d lost (%.1f%%) to missing line \
     info\n"
    p.Suite_types.p_name (Config.name cfg) coll.Autofdo.samples_taken
    coll.Autofdo.samples_lost
    (if coll.Autofdo.samples_taken = 0 then 0.0
     else
       100.0
       *. float_of_int coll.Autofdo.samples_lost
       /. float_of_int coll.Autofdo.samples_taken);
  text

let exec_value_check b (p : Suite_types.sprogram) (cfg : Config.t) entry input =
  let entry = default_entry p entry in
  let r =
    Value_oracle.check (Suite_types.ast p) ~config:cfg
      ~roots:(Suite_types.roots p) ~entry ~input
  in
  bpf b "%s at %s (%s):\n%s" p.Suite_types.p_name (Config.name cfg) entry
    (Value_oracle.report_to_string r);
  if cfg.Config.level = Config.O0 && r.Value_oracle.rp_mismatches <> [] then 1
  else 0

let run_compile ctx ~subject ~config ~profile ~sanitize (view : Request.view) =
  let b = Buffer.create 1024 in
  match view with
  | Request.Passes ->
      List.iter
        (fun name ->
          Buffer.add_string b name;
          Buffer.add_char b '\n')
        (Toolchain.pass_names config);
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Dwarf_size ->
      let p = subject_program subject in
      exec_dwarf_size b p config;
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Pass_trace ->
      let p = subject_program subject in
      exec_pass_trace b p config;
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Measure ->
      let p = subject_program subject in
      exec_measure ctx b p config;
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Value_check { v_entry; v_input } ->
      let p = subject_program subject in
      let code = exec_value_check b p config v_entry v_input in
      (Buffer.contents b, None, Response.D_none, code)
  | Request.Summary | Request.Dump _ | Request.Verify | Request.Disasm _
  | Request.Trace _ | Request.Debug _ | Request.Sample _ -> (
      let p = subject_program subject in
      let bin = compile_subject ctx p config ~profile ~sanitize in
      match view with
      | Request.Summary ->
          let data = exec_summary b p config bin in
          (Buffer.contents b, None, data, 0)
      | Request.Dump sections ->
          exec_dump b p config bin sections;
          (Buffer.contents b, None, Response.D_none, 0)
      | Request.Verify ->
          let code = exec_verify b p config bin in
          (Buffer.contents b, None, Response.D_none, code)
      | Request.Disasm func ->
          Buffer.add_string b (Objdump.disassemble ?func bin);
          (Buffer.contents b, None, Response.D_none, 0)
      | Request.Trace { t_entry; t_input } ->
          let artifact = exec_trace p bin t_entry t_input in
          (Buffer.contents b, Some artifact, Response.D_none, 0)
      | Request.Debug { d_entry; d_commands } ->
          exec_debug b p bin d_entry d_commands;
          (Buffer.contents b, None, Response.D_none, 0)
      | Request.Sample { s_entry; s_period } ->
          let artifact = exec_sample b p config bin s_entry s_period in
          (Buffer.contents b, Some artifact, Response.D_none, 0)
      | _ -> assert false)

(* -- rank / tune -- *)

let run_rank ctx ~config ~k =
  let b = Buffer.create 1024 in
  bpf b "ranking %s passes on the 13-program suite...\n" (Config.name config);
  let prepared = prepared_suite ctx in
  let lr = Ranking.rank ~engine:ctx.engine prepared config in
  bpf b "%-4s %-26s %8s %8s\n" "#" "pass" "+%" "avg rank";
  let top = ref [] in
  List.iteri
    (fun i (e : Ranking.pass_effect) ->
      if i < k then begin
        bpf b "%-4d %-26s %8.2f %8.2f\n" (i + 1) e.Ranking.pe_pass
          e.Ranking.pe_geo_increment_pct e.Ranking.pe_avg_rank;
        top :=
          (e.Ranking.pe_pass, e.Ranking.pe_geo_increment_pct, e.Ranking.pe_avg_rank)
          :: !top
      end)
    lr.Ranking.lr_effects;
  ( Buffer.contents b,
    None,
    Response.D_ranked { dr_config = Config.name config; dr_top = List.rev !top },
    0 )

let run_tune ctx ~config ~y =
  let b = Buffer.create 1024 in
  bpf b "tuning %s (disabling top %d)...\n" (Config.name config) y;
  let prepared = prepared_suite ctx in
  let lr = Ranking.rank ~engine:ctx.engine prepared config in
  let dy = Tuning.dy_config lr ~y in
  bpf b "%s disables: %s\n" (Config.name dy)
    (String.concat ", " dy.Config.disabled);
  let o0_costs = Tuning.o0_costs ~engine:ctx.engine Spec.all in
  let base_pt =
    Tuning.measure_point ~engine:ctx.engine prepared ~o0_costs Spec.all config
  in
  let dy_pt =
    Tuning.measure_point ~engine:ctx.engine prepared ~o0_costs Spec.all dy
  in
  bpf b "%-12s debug=%.4f speedup=%.4f\n" (Config.name config)
    base_pt.Tuning.cp_debug base_pt.Tuning.cp_speedup;
  bpf b "%-12s debug=%.4f (%+.2f%%) speedup=%.4f (%+.2f%%)\n" (Config.name dy)
    dy_pt.Tuning.cp_debug
    (Util.Stats.pct_delta base_pt.Tuning.cp_debug dy_pt.Tuning.cp_debug)
    dy_pt.Tuning.cp_speedup
    (Util.Stats.pct_delta base_pt.Tuning.cp_speedup dy_pt.Tuning.cp_speedup);
  ( Buffer.contents b,
    None,
    Response.D_tuned
      {
        dt_config = Config.name dy;
        dt_disabled = dy.Config.disabled;
        dt_debug = dy_pt.Tuning.cp_debug;
        dt_speedup = dy_pt.Tuning.cp_speedup;
      },
    0 )

(* -- search -- *)

(** The frontier artifact: a standalone, self-stamped canonical JSON
    document (every float through {!Util.Json}'s [%.17g] writer), so the
    CI determinism leg can byte-diff it across runs and [--jobs]
    settings. *)
let frontier_json ~config (r : Tuning.search_result) =
  (* no [resumed] here: the artifact is a pure function of (strategy,
     seed, budget, suite) — byte-identical whether the evaluations ran
     cold or came back from the store *)
  J.to_string
    (Codec.frontier.enc
       Tuning.(Config.name config, (r.sr_strategy, (r.sr_seed, (r.sr_budget,
         (r.sr_evaluated, (r.sr_dominated, r.sr_frontier)))))))

let run_search ctx ~config ~strategy ~budget ~seed ~debug_weight ~speed_weight =
  let b = Buffer.create 1024 in
  bpf b "searching %s disable-sets (%s, budget %d, seed %d)...\n"
    (Config.name config)
    (Tuning.strategy_name strategy)
    budget seed;
  let prepared = prepared_suite ctx in
  (* Seed the search with the greedy dy points of this base: the front
     can only improve on them, so it weakly dominates the paper's greedy
     trade-off by construction and strictly wherever the search finds
     anything better. *)
  let lr = Ranking.rank ~engine:ctx.engine prepared config in
  let seeds = List.map (fun y -> Tuning.dy_config lr ~y) [ 3; 5; 7; 9 ] in
  let o0_costs = Tuning.o0_costs ~engine:ctx.engine Spec.all in
  let opts =
    {
      Tuning.so_strategy = strategy;
      so_budget = budget;
      so_seed = seed;
      so_debug_weight = debug_weight;
      so_speed_weight = speed_weight;
      so_seeds = seeds;
    }
  in
  let r =
    Tuning.search ~engine:ctx.engine prepared ~o0_costs Spec.all ~base:config
      ~opts
  in
  bpf b "%d candidates evaluated (%d served from the store), %d dominated\n"
    r.Tuning.sr_evaluated r.Tuning.sr_resumed r.Tuning.sr_dominated;
  bpf b "Pareto front (%d points):\n" (List.length r.Tuning.sr_frontier);
  bpf b "%-16s %10s %10s  %s\n" "config" "debug" "speedup" "disabled";
  List.iter
    (fun (f : Tuning.frontier_point) ->
      bpf b "%-16s %10.4f %10.4f  %s\n"
        (Config.name f.Tuning.fp_config)
        f.Tuning.fp_debug f.Tuning.fp_speedup
        (match f.Tuning.fp_config.Config.disabled with
        | [] -> "-"
        | l -> String.concat "," l))
    r.Tuning.sr_frontier;
  ( Buffer.contents b,
    Some (frontier_json ~config r),
    Response.D_frontier
      {
        df_config = Config.name config;
        df_strategy = Tuning.strategy_name r.Tuning.sr_strategy;
        df_seed = r.Tuning.sr_seed;
        df_budget = r.Tuning.sr_budget;
        df_evaluated = r.Tuning.sr_evaluated;
        df_dominated = r.Tuning.sr_dominated;
        df_front =
          List.map
            (fun (f : Tuning.frontier_point) ->
              ( Config.name f.Tuning.fp_config,
                f.Tuning.fp_debug,
                f.Tuning.fp_speedup ))
            r.Tuning.sr_frontier;
      },
    0 )

(* -- check -- *)

let run_check ctx ~subject ~fuzz ~seed ~suite =
  let b = Buffer.create 1024 in
  (* The check runs in its own scope, so the sanitizer summary below is
     exactly this request's boundary checks, whatever runs alongside. *)
  let scope = Util.Counters.create () in
  let reports =
    Util.Counters.with_scope scope @@ fun () ->
    let checked =
      match subject with
      | Some s ->
          let p = subject_program s in
          bpf b "checking %s across O0-O3 x {gcc, clang}...\n"
            p.Suite_types.p_name;
          let failures, (runs, skipped) =
            Diff_oracle.check_program ?store:ctx.store p
          in
          [
            {
              Diff_oracle.r_programs = 1;
              r_configs = List.length (Diff_oracle.configs ());
              r_runs = runs;
              r_skipped = skipped;
              r_failures = failures;
            };
          ]
      | None when suite ->
          bpf b
            "checking the suite across O0-O3 x {gcc, clang} (sanitizer on)...\n";
          [ Diff_oracle.check_suite ?store:ctx.store () ]
      | None -> []
    in
    if fuzz <= 0 then checked
    else begin
      bpf b "fuzzing %d synthetic program(s) from seed %d...\n" fuzz seed;
      checked @ [ Diff_oracle.fuzz ?store:ctx.store ~count:fuzz ~seed () ]
    end
  in
  List.iter
    (fun r ->
      Buffer.add_string b (Diff_oracle.report_to_string r);
      Buffer.add_char b '\n')
    reports;
  (match Sanitize.of_rows (Util.Counters.rows scope) with
  | [] -> ()
  | cs ->
      bpf b "sanitizer boundaries validated:\n";
      List.iter
        (fun (pass, checks, failures) ->
          bpf b "  %-26s %7d checked %s\n" pass checks
            (if failures = 0 then "" else Printf.sprintf "%d FAILED" failures))
        cs);
  let totals =
    List.fold_left
      (fun (p, c, r, s, f) (rep : Diff_oracle.report) ->
        ( p + rep.Diff_oracle.r_programs,
          max c rep.Diff_oracle.r_configs,
          r + rep.Diff_oracle.r_runs,
          s + rep.Diff_oracle.r_skipped,
          f + List.length rep.Diff_oracle.r_failures ))
      (0, 0, 0, 0, 0) reports
  in
  let dk_programs, dk_configs, dk_runs, dk_skipped, dk_failures = totals in
  let code = if List.for_all Diff_oracle.clean reports then 0 else 1 in
  ( Buffer.contents b,
    None,
    Response.D_checked { dk_programs; dk_configs; dk_runs; dk_skipped; dk_failures },
    code )

(* -- profile -- *)

(** The [Obs] session is process-wide (one recording at a time), so
    profile requests are the one request kind that still serializes
    against each other: a second concurrent profile fails with the same
    error a nested session would have raised. *)
let profile_mu = Mutex.create ()

let run_profile_locked ctx ~subject ~config ~sanitize ~stats ~trace =
  let p = subject_program subject in
  let b = Buffer.create 1024 in
  if Obs.enabled () then
    failwith "an observability session is already active in this process";
  Obs.start ();
  let stop_started () = ignore (Obs.stop () : Obs.session option) in
  match
    Toolchain.compile (Suite_types.ast p) ~config
      ~roots:(Suite_types.roots p)
      ~options:(Toolchain.Options.make ~sanitize ())
  with
  | exception e ->
      stop_started ();
      raise e
  | bin ->
      (* Snapshot the unified counter table while the session is live
         (the obs/* rows read the active session). *)
      let counter_rows =
        if stats then Measure_engine.stats_table ctx.engine else []
      in
      let session =
        match Obs.stop () with Some s -> s | None -> assert false
      in
      let profs = Obs.profiles session in
      let total_ns =
        List.fold_left (fun a pr -> Int64.add a pr.Obs.pr_ns) 0L profs
      in
      bpf b "%s at %s: %d pass executions, %.3f ms in passes\n\n"
        p.Suite_types.p_name (Config.name config)
        (List.fold_left (fun a pr -> a + pr.Obs.pr_calls) 0 profs)
        (Int64.to_float total_ns /. 1e6);
      let pct ns =
        if total_ns = 0L then "-"
        else
          Printf.sprintf "%.1f"
            (100.0 *. Int64.to_float ns /. Int64.to_float total_ns)
      in
      let rows =
        List.map
          (fun pr ->
            [
              pr.Obs.pr_pass;
              string_of_int pr.Obs.pr_calls;
              Printf.sprintf "%.3f" (Int64.to_float pr.Obs.pr_ns /. 1e6);
              pct pr.Obs.pr_ns;
              string_of_int pr.Obs.pr_delta.Instrument.c_instrs;
              string_of_int pr.Obs.pr_delta.Instrument.c_lines;
              string_of_int pr.Obs.pr_delta.Instrument.c_vars;
            ])
          (List.sort (fun a b -> Int64.compare b.Obs.pr_ns a.Obs.pr_ns) profs)
      in
      Buffer.add_string b
        (Util.Tablefmt.render
           (Util.Tablefmt.make ~title:"Per-pass self time (sorted)"
              ~header:
                [ "pass"; "calls"; "ms"; "self%"; "d-instrs"; "d-lines"; "d-vars" ]
              rows));
      Buffer.add_char b '\n';
      if stats then begin
        Buffer.add_string b
          "== Counters (engine caches / sanitizer / obs) ==\n";
        List.iter
          (fun line ->
            Buffer.add_string b line;
            Buffer.add_char b '\n')
          (Util.Cliopts.kv_lines counter_rows);
        Buffer.add_char b '\n'
      end;
      bpf b "binary: %d instructions, text digest %s\n"
        (Array.length bin.Emit.code) bin.Emit.text_digest;
      let artifact =
        if not trace then None
        else begin
          let js = Obs.to_chrome_json session in
          (* Self-check the artifact before shipping it: balanced spans
             and at least one span per profiled pass. *)
          (match Obs.validate_chrome js with
          | Error msg -> failwith ("trace validation failed: " ^ msg)
          | Ok v ->
              let missing =
                List.filter
                  (fun pr ->
                    match List.assoc_opt pr.Obs.pr_pass v.Obs.v_spans with
                    | Some n when n >= 1 -> false
                    | _ -> true)
                  profs
              in
              if missing <> [] then
                failwith
                  ("trace validation failed: no span for: "
                  ^ String.concat ", "
                      (List.map (fun pr -> pr.Obs.pr_pass) missing)));
          Some js
        end
      in
      (Buffer.contents b, artifact, Response.D_none, 0)

let run_profile ctx ~subject ~config ~sanitize ~stats ~trace =
  if not (Mutex.try_lock profile_mu) then
    failwith "an observability session is already active in this process";
  Fun.protect
    ~finally:(fun () -> Mutex.unlock profile_mu)
    (fun () -> run_profile_locked ctx ~subject ~config ~sanitize ~stats ~trace)

(* -- bench / cache / stats -- *)

let run_bench ctx ~subject ~config (action : Request.bench_action) =
  let p = subject_program subject in
  match action with
  | Request.Cost ->
      let cost = Measure_engine.bench_cost ctx.engine p config in
      ( Printf.sprintf "%s at %s: %d cycles\n" p.Suite_types.p_name
          (Config.name config) cost,
        None,
        Response.D_cost cost,
        0 )
  | Request.Exec { x_entry; x_input } ->
      let bin =
        compile_subject ctx p config ~profile:None ~sanitize:false
      in
      let r = Vm.run bin ~entry:x_entry ~input:x_input Vm.default_opts in
      let b = Buffer.create 128 in
      bpf b "output: [%s]\n"
        (String.concat "; " (List.map string_of_int r.Vm.output));
      bpf b "cost: %d cycles, %d instructions%s\n" r.Vm.cost r.Vm.instrs
        (if r.Vm.timed_out then "  (TIMED OUT)" else "");
      (Buffer.contents b, None, Response.D_cost r.Vm.cost, 0)

let run_cache_op ctx ~action ~dir =
  let b = Buffer.create 256 in
  let store =
    match (dir, ctx.store) with
    | None, Some s -> s
    | _ -> Measure_engine.open_store ?dir ()
  in
  (match action with
  | Request.Op_stats ->
      bpf b "cache %s (format v%d)\n"
        (Engine.Disk_store.dir store)
        Engine.Disk_store.format_version;
      let summary = Engine.Disk_store.summary store in
      if summary = [] then Buffer.add_string b "  (empty)\n"
      else
        List.iter
          (fun (cache, entries, bytes) ->
            bpf b "  %-14s %6d entries %10d bytes\n" cache entries bytes)
          summary;
      bpf b "  %-14s %6d entries %10d bytes\n" "total"
        (Engine.Disk_store.entry_count store)
        (Engine.Disk_store.size_bytes store)
  | Request.Op_clear ->
      let n = Engine.Disk_store.clear store in
      bpf b "cache %s: removed %d entr%s\n"
        (Engine.Disk_store.dir store)
        n
        (if n = 1 then "y" else "ies")
  | Request.Op_gc ->
      let n = Engine.Disk_store.gc store in
      bpf b "cache %s: dropped %d stale/corrupt entr%s, %d entries (%d bytes) kept\n"
        (Engine.Disk_store.dir store)
        n
        (if n = 1 then "y" else "ies")
        (Engine.Disk_store.entry_count store)
        (Engine.Disk_store.size_bytes store));
  (Buffer.contents b, None, Response.D_none, 0)

let run_stats ctx (what : Request.stats_what) =
  let b = Buffer.create 512 in
  match what with
  | Request.Suite ->
      Buffer.add_string b "test suite (13 programs):\n";
      List.iter
        (fun (p : Suite_types.sprogram) ->
          bpf b "  %-12s %d harness(es)\n" p.Suite_types.p_name
            (List.length p.Suite_types.p_harnesses))
        Programs.all;
      Buffer.add_string b "SPEC CPU 2017 analogs:\n";
      List.iter
        (fun (p : Suite_types.sprogram) -> bpf b "  %s\n" p.Suite_types.p_name)
        Spec.all;
      Buffer.add_string b "large AutoFDO workload:\n";
      Buffer.add_string b "  selfcomp\n";
      (Buffer.contents b, None, Response.D_none, 0)
  | Request.Counters ->
      let rows = Measure_engine.stats_table ctx.engine in
      Buffer.add_string b "== Counters (engine caches / sanitizer / obs) ==\n";
      List.iter
        (fun line ->
          Buffer.add_string b line;
          Buffer.add_char b '\n')
        (Util.Cliopts.kv_lines rows);
      (Buffer.contents b, None, Response.D_counters rows, 0)
  | Request.Server ->
      let rows = !server_counters_hook () in
      if rows = [] then Buffer.add_string b "(no server in this process)\n"
      else
        List.iter
          (fun line ->
            Buffer.add_string b line;
            Buffer.add_char b '\n')
          (Util.Cliopts.kv_lines rows);
      (Buffer.contents b, None, Response.D_counters rows, 0)

(* -- experiments / merge: the sharded corpus runner (ROADMAP item 5) -- *)

let job_spec (job : Job.t) =
  if job.Job.j_corpus < 1 then failwith "corpus size must be >= 1";
  { Experiments.cs_seed = job.Job.j_seed; cs_n = job.Job.j_corpus }

let job_configs (job : Job.t) =
  match job.Job.j_configs with
  | [] -> Experiments.all_standard_configs
  | cs -> cs

(** Pick the requested tables out of {!Experiments.corpus_tables}
    output (which renders every table, in {!Job.table_names} order). *)
let select_tables (job : Job.t) tables =
  match job.Job.j_tables with
  | [] -> tables
  | wanted ->
      let named = List.combine Job.table_names tables in
      List.map
        (fun name ->
          match List.assoc_opt name named with
          | Some t -> t
          | None ->
              failwith
                (Printf.sprintf "unknown table %S (tables: %s)" name
                   (String.concat ", " Job.table_names)))
        wanted

let run_experiments ctx (job : Job.t) =
  let spec = job_spec job in
  let configs = job_configs job in
  let config_names = List.map Config.name configs in
  let digest = Experiments.corpus_digest spec in
  match job.Job.j_shard with
  | None ->
      let rows = Experiments.corpus_rows ~engine:ctx.engine spec configs in
      let tables =
        select_tables job
          (Experiments.corpus_tables spec ~configs:config_names rows)
      in
      let text = String.concat "" (List.map Util.Tablefmt.render tables) in
      (text, None, Response.D_none, 0)
  | Some (i, n) ->
      let shard = { Experiments.sh_index = i; sh_count = n } in
      let rows =
        Experiments.corpus_rows ~engine:ctx.engine ~shard spec configs
      in
      let programs =
        List.length
          (List.sort_uniq compare
             (List.map (fun r -> r.Experiments.cr_index) rows))
      in
      let partial =
        {
          Partial.pt_shard = i;
          pt_shards = n;
          pt_seed = spec.Experiments.cs_seed;
          pt_corpus = spec.Experiments.cs_n;
          pt_digest = digest;
          pt_configs = config_names;
          pt_programs = programs;
          pt_rows = rows;
        }
      in
      let text =
        Printf.sprintf
          "shard %d/%d: %d program(s), %d row(s) (corpus n=%d seed=%d digest \
           %s)\n"
          i n programs (List.length rows) spec.Experiments.cs_n
          spec.Experiments.cs_seed digest
      in
      (text, None, Response.D_partial partial, 0)

(** Fold a complete partial set into the final tables. Pure validation
    plus rendering — no engine work, so merging is cheap enough to run
    anywhere (CLI, daemon, bench). [corpus_tables] re-sorts the row set
    before any reduction, so the output is byte-identical to the
    unsharded run however the rows were partitioned. *)
let run_merge (partials : Partial.t list) =
  match partials with
  | [] -> failwith "merge needs at least one shard partial"
  | first :: rest ->
      List.iter
        (fun (p : Partial.t) ->
          if
            p.Partial.pt_shards <> first.Partial.pt_shards
            || p.Partial.pt_seed <> first.Partial.pt_seed
            || p.Partial.pt_corpus <> first.Partial.pt_corpus
            || p.Partial.pt_digest <> first.Partial.pt_digest
            || p.Partial.pt_configs <> first.Partial.pt_configs
          then
            failwith
              (Printf.sprintf
                 "shard %d/%d disagrees with shard %d/%d on corpus or \
                  configuration set"
                 p.Partial.pt_shard p.Partial.pt_shards first.Partial.pt_shard
                 first.Partial.pt_shards))
        rest;
      let spec =
        {
          Experiments.cs_seed = first.Partial.pt_seed;
          cs_n = first.Partial.pt_corpus;
        }
      in
      let expect = Experiments.corpus_digest spec in
      if first.Partial.pt_digest <> expect then
        failwith
          (Printf.sprintf
             "corpus digest mismatch: partials carry %s, this build generates \
              %s"
             first.Partial.pt_digest expect);
      let n = first.Partial.pt_shards in
      let seen =
        List.sort compare (List.map (fun p -> p.Partial.pt_shard) partials)
      in
      let wanted = List.init n (fun i -> i + 1) in
      if seen <> wanted then
        failwith
          (Printf.sprintf "incomplete merge: have shard(s) %s of %d"
             (String.concat ", " (List.map string_of_int seen))
             n);
      let rows = List.concat_map (fun p -> p.Partial.pt_rows) partials in
      let text =
        Experiments.render_corpus_tables spec ~configs:first.Partial.pt_configs
          rows
      in
      (text, None, Response.D_none, 0)

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)

let run_request ctx (req : Request.t) =
  match req with
  | Request.Compile { c_subject; c_config; c_profile; c_sanitize; c_view } ->
      run_compile ctx ~subject:c_subject ~config:c_config ~profile:c_profile
        ~sanitize:c_sanitize c_view
  | Request.Rank { r_config; r_k } -> run_rank ctx ~config:r_config ~k:r_k
  | Request.Tune { t_config; t_y } -> run_tune ctx ~config:t_config ~y:t_y
  | Request.Search
      { se_config; se_strategy; se_budget; se_seed; se_debug_weight;
        se_speed_weight } ->
      run_search ctx ~config:se_config ~strategy:se_strategy ~budget:se_budget
        ~seed:se_seed ~debug_weight:se_debug_weight
        ~speed_weight:se_speed_weight
  | Request.Check { k_subject; k_fuzz; k_seed; k_suite } ->
      run_check ctx ~subject:k_subject ~fuzz:k_fuzz ~seed:k_seed ~suite:k_suite
  | Request.Profile { p_subject; p_config; p_sanitize; p_stats; p_trace } ->
      run_profile ctx ~subject:p_subject ~config:p_config ~sanitize:p_sanitize
        ~stats:p_stats ~trace:p_trace
  | Request.Bench { b_subject; b_config; b_action } ->
      run_bench ctx ~subject:b_subject ~config:b_config b_action
  | Request.Cache_op { o_action; o_dir } ->
      run_cache_op ctx ~action:o_action ~dir:o_dir
  | Request.Stats { s_what } -> run_stats ctx s_what
  | Request.Experiments { e_job } -> run_experiments ctx e_job
  | Request.Merge { m_partials } -> run_merge m_partials

let error_message = function
  | Failure msg -> msg
  | Minic.Parser.Error (msg, line) ->
      Printf.sprintf "parse error line %d: %s" line msg
  | Minic.Lexer.Error (msg, line) ->
      Printf.sprintf "lex error line %d: %s" line msg
  | Minic.Typecheck.Error (msg, line) ->
      Printf.sprintf "check error line %d: %s" line msg
  | Sys_error msg -> msg
  | e -> Printexc.to_string e

(** Test seam: called at the top of every {!execute}, inside the
    request's counter scope. The daemon tests park it on a mutex to hold a
    request in flight deterministically. *)
let execute_gate : (unit -> unit) ref = ref (fun () -> ())

(** Execute one request against a context. Never raises: failures come
    back as [Error] responses with a one-line message and exit code 2.
    Safe to call concurrently from many threads or domains on a shared
    context — see {!ctx} — and the response's [stats] field is the rows
    of the request's own {!Util.Counters} scope: its own counter
    activity, unpolluted by whatever ran alongside it. *)
let execute (ctx : ctx) (req : Request.t) : Response.t =
  let scope = Util.Counters.create () in
  let finish status text artifact data exit_code =
    let stats = Util.Counters.rows scope in
    { Response.status; text; artifact; data; stats; exit_code }
  in
  match
    Util.Counters.with_scope scope (fun () ->
        !execute_gate ();
        Obs.Span.wrap "api:execute" (fun () -> run_request ctx req))
  with
  | text, artifact, data, exit_code ->
      finish Response.Ok text artifact data exit_code
  | exception e -> finish (Response.Error (error_message e)) "" None Response.D_none 2
