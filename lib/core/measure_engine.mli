(** The repository's measurement engine — the single entry point for
    compiling, tracing, measuring and benchmarking (program,
    configuration) pairs, with a two-tier content-addressed cache and an
    optional [Domain] worker pool (see [lib/engine] for the substrate
    and DESIGN.md "Measurement engine" for the design).

    Tier 1 is keyed by (AST digest, {!Config.fingerprint}) and caches
    compiled binaries; tier 2 is keyed by (subject digest, [.text]
    digest) and caches traces, metrics and benchmark costs — two
    configurations whose binaries share machine code share one
    measurement (the engine-wide generalization of the paper's
    Section III-A discard optimization). *)

type t

type job =
  | Compile of Evaluation.prepared * Config.t
  | Trace of Evaluation.prepared * Config.t
  | Measure of Evaluation.prepared * Config.t
  | BenchCost of Suite_types.sprogram * Config.t

type result =
  | Binary of Emit.binary
  | Traced of Debugger.trace * Emit.binary
  | Measured of Metrics.all_methods * Emit.binary
  | Cost of int

val create : ?workers:int -> ?store:Engine.Disk_store.t -> unit -> t
(** Fresh caches, zeroed counters. [workers] sizes the pool behind
    {!map} (default 1 = sequential; parallel runs reduce in input order
    and stay byte-identical). [store] backs every cache tier with a
    persistent on-disk store (see {!open_store}): results already on
    disk are served without recomputing, fresh results are published
    back, so runs are resumable and warm re-runs near-instant — still
    byte-identical to cold ones. *)

val cache_schema : string
(** The serialization schema stamp written into every persistent cache
    entry: ["debugtuner-v1/" ^ Sys.ocaml_version]. Entries written under
    any other stamp are stale — evicted and recomputed, never decoded
    ([Marshal] is type-unsafe). *)

val open_store :
  ?dir:string -> ?max_bytes:int -> unit -> Engine.Disk_store.t
(** Open the repository's persistent artifact store. The directory is
    [dir] if given, else [$DEBUGTUNER_CACHE] if set and non-empty, else
    ["_cache"]. Always stamped with {!cache_schema}. *)

val default : unit -> t
(** The process-wide shared engine, for callers that do not thread an
    instance. *)

val run : t -> job -> result

val compile : t -> Evaluation.prepared -> Config.t -> Emit.binary
(** Tier-1 cached compilation. *)

val peek_compile : t -> Evaluation.prepared -> Config.t -> Emit.binary option
(** Side-effect-free tier-1 lookup (no compile, no counter bump). *)

val seed_compile :
  t -> Evaluation.prepared -> Config.t -> (unit -> Emit.binary) -> Emit.binary
(** Publish a binary produced outside the engine under the ordinary
    tier-1 key; [produce] must return exactly what a straight compile
    would (see [Engine.Make.seed_compile]). *)

val peek_bench_compile :
  t -> Suite_types.sprogram -> Config.t -> Emit.binary option

val seed_bench_compile :
  t ->
  Suite_types.sprogram ->
  Config.t ->
  (unit -> Emit.binary) ->
  Emit.binary

val trace : t -> Evaluation.prepared -> Config.t -> Debugger.trace * Emit.binary
(** Tier-2 cached trace extraction. *)

val measure :
  t -> Evaluation.prepared -> Config.t -> Metrics.all_methods * Emit.binary
(** Tier-2 cached measurement: the cached replacement for
    {!Evaluation.measure}. *)

val product : t -> Evaluation.prepared -> Config.t -> float
(** The paper's headline number (hybrid product), engine-cached. *)

val bench_cost : t -> Suite_types.sprogram -> Config.t -> int
(** Tier-2 cached benchmark cost: same [.text], same cost, no re-run. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic ordered parallel map on the engine's pool; [f] may
    issue engine jobs (the caches are domain-safe). Pool workers run in
    the caller's {!Util.Counters} scope, so parallel work inside a
    request is attributed to that request. *)

(** {1 Pass-prefix incremental compilation}

    A sweep's configurations (Ranking's one-disabled-each set, Tuning's
    search frontier) mostly run the identical pipeline prefix up to
    their first divergence. The sweep planner groups a config set by
    shared prefix, executes each shared segment once
    ({!Toolchain.advance} over an {!Ir.Snapshot}-backed checkpoint),
    and schedules only the divergent suffixes ({!Toolchain.resume}) on
    the Domain pool. Contested entries are probed as they run: when an
    entry leaves the state digest (and backend options) unchanged it
    was a no-op on this subject, the divergence is immaterial, and both
    sides keep sharing — configs merging all the way to the end of the
    pipeline share a single backend run. Every produced binary is
    byte-identical to a straight-line compile and is seeded into the
    ordinary tier-1 table, so downstream consumers cannot tell the
    difference — except in wall clock. See DESIGN.md "Incremental
    compilation". *)

val prefix_cache_enabled : bool ref
(** Escape hatch ([--no-prefix-cache]): when [false] the sweep entry
    points compile every configuration straight (still in parallel,
    still cached) with no snapshotting. Default [true]. *)

val compile_sweep : t -> Evaluation.prepared -> Config.t list -> unit
(** Prewarm tier 1 for a sweep over one prepared program: compile every
    not-yet-cached configuration, sharing pipeline prefixes. After the
    call, {!compile}/{!trace}/{!measure} of any swept configuration is
    a tier-1 hit. Duplicate fingerprints are planned once. *)

val bench_compile_sweep : t -> Suite_types.sprogram -> Config.t list -> unit
(** {!compile_sweep} for the benchmark tier ({!bench_cost}). *)

val prefix_counters : unit -> (string * int) list
(** Process-wide planner activity as flat rows:
    [prefix/hits] (sweep compiles that skipped a shared prefix),
    [prefix/misses] (sweep compiles with nothing to share),
    [prefix/snapshot_bytes], [prefix/passes_skipped] (total pipeline
    entries not re-executed), [prefix/merged] (configs served a
    sibling's binary outright because every contested entry between
    them was a no-op). [hits]/[misses]/[passes_skipped] report the
    structural divergence trie — [passes_skipped] is exactly the sum of
    shared-prefix lengths, independent of how much better no-op merging
    did. Also merged into {!stats_table}. *)

val reset_prefix_counters : unit -> unit
(** Zero the planner counters (tests, bench scenario isolation). *)

val search_counters : unit -> (string * int) list
(** Tuning-search counters bumped by {!Tuning.search} ([candidates],
    [suffix_shared], [frontier], [dominated], [resumed], [rounds]),
    raw (no prefix). Merged into {!stats_table} as [search/<name>]
    rows — the bench dominance gate and the resume regression test
    read them from there. *)

val reset_search_counters : unit -> unit
(** Zero the search counters (tests, bench scenario isolation). *)

val workers : t -> int
val stats : t -> Engine.Stats.t

val store : t -> Engine.Disk_store.t option
(** The persistent store this engine was created with, if any. *)

val stats_table : t -> (string * int) list
(** One flat, sorted [(name, value)] table of every non-zero counter
    this engine can see: its cache activity
    ([engine/<cache>/hits|misses|dedups]), its store's activity
    ([store/<cache>/...], present only when the engine has a store),
    the process-wide {!Util.Counters.global} rows (sanitizer boundaries
    [sanitize/<pass>/checked|failures], planner [prefix/*], shard
    progress [shard/*], tuning search [search/*], vm layer [vm/*]) and
    the live [Obs] session's counters ([obs/<name>]). The single stats
    path behind [bench --stats] and the CLI, in both text and JSON
    renderings. *)

val stats_delta :
  before:(string * int) list -> (string * int) list -> (string * int) list
(** [stats_delta ~before after] subtracts two {!stats_table} snapshots
    row-wise (rows absent from [before] count from zero, zero-delta
    rows dropped), preserving [after]'s order. Only sound for serial
    before/after callers (the benchmark harness): a concurrent request
    reads its own {!Util.Counters} scope instead. *)

val memo : t -> name:string -> (unit -> 'a Engine.Memo.t)
(** A fresh memo table wired to this engine's counters, for derived
    results keyed by {!Config.fingerprint} (rankings, trade-off points,
    speedup rows). *)
