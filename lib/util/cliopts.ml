(** Command-line options shared by the bench harness and the CLI.

    Both front-ends expose the same measurement/observability switches
    (--stats, --json, --jobs, --sanitize, --trace, --profile); each
    option's name, metavariable and help string live here exactly once.
    The bench harness consumes them through {!parse}; the cmdliner-based
    CLI builds its [Arg.info]s from the same {!spec}s, so the two always
    agree on spelling and semantics. This module must stay free of
    cmdliner (util underpins every library in the repo). *)

type spec = {
  o_name : string;  (** long option, with the leading "--" *)
  o_docv : string option;  (** argument metavariable; [None] = flag *)
  o_doc : string;  (** help string (cmdliner markup-free) *)
}

let stats =
  {
    o_name = "--stats";
    o_docv = None;
    o_doc =
      "print the unified counter table (engine caches, sanitizer \
       boundaries, observability counters) after the run";
  }

let json =
  {
    o_name = "--json";
    o_docv = Some "FILE";
    o_doc = "write machine-readable timings and the counter table to FILE";
  }

let jobs =
  {
    o_name = "--jobs";
    o_docv = Some "N";
    o_doc = "size of the measurement engine's worker pool (default 1)";
  }

let sanitize =
  {
    o_name = "--sanitize";
    o_docv = None;
    o_doc = "validate every pass boundary during compilation";
  }

let trace =
  {
    o_name = "--trace";
    o_docv = Some "FILE";
    o_doc =
      "record an execution trace and write it to FILE as Chrome \
       trace_event JSON (load in chrome://tracing or Perfetto)";
  }

let profile =
  {
    o_name = "--profile";
    o_docv = None;
    o_doc = "print a sorted self-time report of the traced spans";
  }

let cache_dir =
  {
    o_name = "--cache-dir";
    o_docv = Some "DIR";
    o_doc =
      "persistent artifact cache directory (default _cache, or \
       $DEBUGTUNER_CACHE when set)";
  }

let no_cache =
  {
    o_name = "--no-cache";
    o_docv = None;
    o_doc = "disable the persistent artifact cache for this run";
  }

let no_prefix_cache =
  {
    o_name = "--no-prefix-cache";
    o_docv = None;
    o_doc =
      "disable pass-prefix incremental compilation for sweeps (compile \
       every configuration from scratch)";
  }

let socket =
  {
    o_name = "--socket";
    o_docv = Some "PATH";
    o_doc = "unix-domain socket path of the service daemon";
  }

let timeout =
  {
    o_name = "--timeout";
    o_docv = Some "SECONDS";
    o_doc =
      "bound every blocking socket read/write when talking to the daemon \
       (default: wait forever)";
  }

let queue_limit =
  {
    o_name = "--queue-limit";
    o_docv = Some "N";
    o_doc =
      "maximum requests admitted at once before the daemon answers \
       'overloaded' instead of queueing (default 8)";
  }

let listen =
  {
    o_name = "--listen";
    o_docv = Some "HOST:PORT";
    o_doc =
      "additionally serve the same protocol over TCP on HOST:PORT \
       (port 0 binds an ephemeral port, reported at startup)";
  }

let executors =
  {
    o_name = "--executors";
    o_docv = Some "N";
    o_doc =
      "size of the daemon's executor domain pool — requests from \
       different clients that execute concurrently (0 = execute inline \
       on session threads, serialized; default min(4, cores))";
  }

let connect =
  {
    o_name = "--connect";
    o_docv = Some "ENDPOINT";
    o_doc =
      "run this command in the debugtuner serve daemon at ENDPOINT — a \
       unix socket path, or HOST:PORT for a TCP daemon — instead of \
       in-process (shares its caches)";
  }

let shard =
  {
    o_name = "--shard";
    o_docv = Some "I/N";
    o_doc =
      "run only this shard of the experiment corpus (1-based; e.g. 2/4) \
       and emit a partial instead of final tables";
  }

let corpus =
  {
    o_name = "--corpus";
    o_docv = Some "N";
    o_doc =
      "size of the generated experiment corpus (synth sweeps, fuzz \
       programs and self-compilation subjects; seed-deterministic)";
  }

let partial_dir =
  {
    o_name = "--partial-dir";
    o_docv = Some "DIR";
    o_doc =
      "directory where shard runs write (and merge reads) per-shard \
       partial JSON files";
  }

type common = {
  mutable c_stats : bool;
  mutable c_json : string option;
  mutable c_jobs : int;
  mutable c_sanitize : bool;
  mutable c_trace : string option;
  mutable c_profile : bool;
  mutable c_cache_dir : string option;
  mutable c_no_cache : bool;
  mutable c_no_prefix_cache : bool;
}

let defaults () =
  {
    c_stats = false;
    c_json = None;
    c_jobs = 1;
    c_sanitize = false;
    c_trace = None;
    c_profile = false;
    c_cache_dir = None;
    c_no_cache = false;
    c_no_prefix_cache = false;
  }

(** The one strict shard-spec parser: both front-ends route "--shard"
    arguments through it so a bad spec always produces the same
    one-line message. Accepts exactly [I/N] with 1 <= I <= N. *)
let parse_shard (s : string) : (int * int, string) result =
  let bad () =
    Error
      (Printf.sprintf
         "invalid shard spec %S (expected I/N with 1 <= I <= N, e.g. 2/4)" s)
  in
  let all_digits part =
    part <> "" && String.for_all (fun c -> c >= '0' && c <= '9') part
  in
  match String.index_opt s '/' with
  | None -> bad ()
  | Some slash -> (
      let i_part = String.sub s 0 slash
      and n_part = String.sub s (slash + 1) (String.length s - slash - 1) in
      if not (all_digits i_part && all_digits n_part) then bad ()
      else
        match (int_of_string_opt i_part, int_of_string_opt n_part) with
        | Some i, Some n when 1 <= i && i <= n -> Ok (i, n)
        | _ -> bad ())

let value name = function
  | v :: rest -> (v, rest)
  | [] -> invalid_arg (name ^ " requires an argument")

let int_value name rest =
  let v, rest = value name rest in
  match int_of_string_opt v with
  | Some n -> (n, rest)
  | None -> invalid_arg (Printf.sprintf "%s: not an integer: %s" name v)

(** [parse c argv] consumes every shared option from [argv] into [c] and
    returns the arguments it did not recognize, in their original
    order. Raises [Invalid_argument] on a missing or malformed option
    argument. *)
let parse (c : common) (argv : string list) : string list =
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest when a = stats.o_name ->
        c.c_stats <- true;
        go acc rest
    | a :: rest when a = json.o_name ->
        let v, rest = value a rest in
        c.c_json <- Some v;
        go acc rest
    | a :: rest when a = jobs.o_name ->
        let n, rest = int_value a rest in
        c.c_jobs <- n;
        go acc rest
    | a :: rest when a = sanitize.o_name ->
        c.c_sanitize <- true;
        go acc rest
    | a :: rest when a = trace.o_name ->
        let v, rest = value a rest in
        c.c_trace <- Some v;
        go acc rest
    | a :: rest when a = profile.o_name ->
        c.c_profile <- true;
        go acc rest
    | a :: rest when a = cache_dir.o_name ->
        let v, rest = value a rest in
        c.c_cache_dir <- Some v;
        go acc rest
    | a :: rest when a = no_cache.o_name ->
        c.c_no_cache <- true;
        go acc rest
    | a :: rest when a = no_prefix_cache.o_name ->
        c.c_no_prefix_cache <- true;
        go acc rest
    | a :: rest -> go (a :: acc) rest
  in
  go [] argv

(* ------------------------------------------------------------------ *)
(* Unified (name, value) counter table renderers — the single stats
   path: whatever counters a front-end collects, they print through
   these two functions, as text or as JSON. *)

let kv_lines (rows : (string * int) list) : string list =
  let w =
    List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 rows
  in
  List.map (fun (n, v) -> Printf.sprintf "%-*s %d" w n v) rows

let kv_json_rows (rows : (string * int) list) : string list =
  List.map
    (fun (n, v) ->
      Printf.sprintf "{\"name\": \"%s\", \"value\": %d}" (Json.escape n) v)
    rows
