(** The measurement engine: content-addressed caching and deterministic
    parallel execution for "measure (program, configuration)" jobs.

    Every table of the paper's evaluation is assembled from the same
    primitive — compile a program under a configuration, trace it, and
    compute metrics — and the experiment drivers re-request identical
    jobs thousands of times. This library is the shared substrate those
    drivers run on:

    - {!Stats}: named hit / miss / dedup counters, so the caching is
      observable (surfaced by [bench/main.exe --stats]) and attributed
      to the current {!Util.Counters} request scope;
    - {!Memo}: a mutex-protected content-addressed memo table (string
      key -> value) with per-table counters;
    - {!Pool}: an optional [Domain]-based worker pool with a
      deterministic ordered reduction — results come back in input
      order, so parallel runs print byte-identical tables;
    - {!Make}: a functor turning domain operations (compile, trace,
      metrics, benchmark) into a typed job API with a two-tier
      content-addressed cache. Tier 1 is keyed by (subject content
      digest, canonical configuration fingerprint) and stores compiled
      binaries; tier 2 is keyed by a binary content digest and stores
      traces / metrics / benchmark costs, generalizing the paper's
      Section III-A ".text-identical discard" to every measurement in
      the repository. The domain supplies two binary keys: a full one
      for debug-quality results (identical .text can carry different
      debug info, so metrics need the whole binary to agree) and a
      possibly coarser one for execution cost (which depends on the
      machine code alone).

    - {!Disk_store}: a persistent content-addressed artifact store — a
      versioned on-disk cache directory behind every memo table, so
      measurement survives process restarts and long experiment runs
      are resumable.

    The library is deliberately ignorant of the compiler model: it
    depends on nothing but the standard library, [Util.Counters] (where
    every counter lives) and [Unix] (for the disk store's atomic-rename
    publication and LRU clock); the concrete instantiation lives in
    [Debugtuner.Measure_engine]. *)

(** {1 Cache statistics} *)

module Stats : sig
  type t = Util.Counters.t
  (** Rows [engine/<cache>/hits|misses|dedups]. *)

  type counter = {
    hits : int;  (** result served from a cache tier *)
    misses : int;  (** job actually executed *)
    dedups : int;
        (** tier-2 content collisions: a fresh compile whose binary
            digest was already measured, served without re-tracing /
            re-running *)
  }

  type event = [ `Hit | `Miss | `Dedup ]

  val create : unit -> t

  val bump : t -> string -> event -> unit
  (** [bump t cache event] increments [event]'s counter of the named
      cache (and of the current scope). Domain-safe. *)

  val snapshot : t -> (string * counter) list
  (** Per-cache counters, sorted by cache name. *)

  val total : t -> counter
  (** Sum over every cache. *)
end

(** {1 Persistent content-addressed artifact store} *)

(** A disk-backed second level behind the in-memory memo tables: a
    cache directory of write-once entries, keyed by the same content
    addresses, published with atomic write-then-rename so concurrent
    writers (domains of one process, or separate processes sharing the
    directory) can never expose a half-written entry under its final
    name. Every entry carries a format-version + schema stamp and a
    payload checksum: stale or damaged entries are detected on read,
    evicted, counted, and recomputed — never trusted. The store is
    size-bounded with LRU eviction (a read refreshes the entry's
    mtime). All failures degrade to cache misses; the store can never
    change a result or fail a run. *)
module Disk_store : sig
  type t

  val format_version : int
  (** Bumped whenever the on-disk entry layout changes; entries written
      by any other version self-invalidate on read. *)

  val create : ?max_bytes:int -> ?schema:string -> dir:string -> unit -> t
  (** Open (creating if needed) the store rooted at [dir]. [schema] is
      the caller's serialization-format stamp — entries written under a
      different schema are treated as stale. [max_bytes] bounds the
      total entry payload on disk (default 512 MiB); exceeding it
      triggers LRU eviction. *)

  val dir : t -> string

  val get : t -> cache:string -> key:string -> string option
  (** The stored bytes for [key] in the named cache, verifying the
      version stamp and checksum. Stale and corrupt entries are evicted
      and reported as misses. *)

  val put : t -> cache:string -> key:string -> string -> unit
  (** Publish an entry atomically (write to a temp file, then rename).
      An I/O failure ([Sys_error], [Unix_error]) removes the temp file
      and is counted as a [write_errors] row; the store degrades to a
      miss. *)

  val invalidate : t -> cache:string -> key:string -> unit
  (** Evict one entry and count it as corrupt — for callers whose
      decoding failed after {!get} succeeded. *)

  val clear : t -> int
  (** Remove every entry (and abandoned temp files); returns how many
      entries were removed. *)

  val gc : t -> int
  (** Maintenance sweep: drop stale/corrupt entries, enforce
      [max_bytes] by LRU, remove abandoned temp files. Returns the
      number of stale/corrupt entries removed. *)

  val entry_count : t -> int
  val size_bytes : t -> int

  val summary : t -> (string * int * int) list
  (** Per-cache [(name, entries, bytes)], sorted. *)

  val counters : t -> (string * int) list
  (** This handle's activity as flat rows —
      [<cache>/hits|misses|writes|corrupt|stale|evicted|evicted_ext|write_errors]
      (the stats table's [store/*] rows) — sorted, zero rows dropped. [evicted] counts this handle's own
      LRU/gc removals; [evicted_ext] counts entries this handle
      published that later vanished from disk, i.e. evictions
      performed by another process sharing the directory. Every bump
      also reaches the current {!Util.Counters} scope. *)

  (** {2 Observability seam} *)

  type io_wrap = {
    wrap : 'a. string -> (string * string) list -> (unit -> 'a) -> 'a;
  }

  val set_io_wrap : io_wrap option -> unit
  (** Install a wrapper bracketing every store I/O ([store:get],
      [store:put], [store:gc]) — the instantiation points this at [Obs]
      spans/counters without this library depending on lib/obs. *)
end

(** {1 Content-addressed memo tables} *)

module Memo : sig
  type 'a t

  val create :
    ?stats:Stats.t -> ?store:Disk_store.t -> name:string -> unit -> 'a t
  (** A fresh table. When [stats] is given, lookups bump the counters
      under [name]. When [store] is given, the table is read-through /
      write-through persistent: misses consult the disk store (under
      the cache named [name], values [Marshal]ed) and computed values
      are published back. A disk payload that fails to decode is
      evicted and recomputed. *)

  val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
  (** [find_or_add t key produce] returns the cached value for [key],
      running [produce] (outside the table lock) on a miss. [produce]
      must be deterministic in [key]: under parallel execution two
      domains may race on the same key and the first inserted value
      wins. *)

  val find_opt : 'a t -> string -> 'a option
  val add : 'a t -> string -> 'a -> unit
  val length : 'a t -> int
end

(** {1 Deterministic worker pool} *)

module Pool : sig
  type t

  val create : ?workers:int -> unit -> t
  (** [workers <= 1] (the default) is the sequential fallback: [map] is
      exactly [List.map]. *)

  val recommended_workers : unit -> int
  (** [Domain.recommended_domain_count], capped to a sane bound. *)

  val workers : t -> int

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Ordered parallel map: the result list matches the input order
      element-for-element regardless of worker count or scheduling, so
      any reduction over it is deterministic. Exceptions raised by [f]
      are re-raised (the one attached to the earliest input wins).
      Workers run in the caller's {!Util.Counters} scope, so parallel
      work inside a request is attributed to that request. *)
end

(** {1 The typed job API} *)

(** Domain operations the engine caches. All functions must be pure
    (deterministic, no shared mutable state) — the repository's
    compiler, tracer and VM qualify — and every [*_key] must be a
    content address: equal keys imply interchangeable results. *)
module type DOMAIN = sig
  type config
  type subject  (** a prepared test-suite program *)

  type bench_subject  (** a benchmark program (no corpus needed) *)

  type binary
  type trace
  type metrics

  val config_key : config -> string
  (** Canonical configuration fingerprint (order- and
      duplicate-insensitive over disabled passes). *)

  val subject_ast_key : subject -> string
  (** Content digest of the compile inputs (AST + roots); tier-1 key
      component. *)

  val subject_key : subject -> string
  (** Content digest of everything measurement depends on (AST + corpus
      + baseline); tier-2 key component. *)

  val bench_subject_key : bench_subject -> string

  val binary_key : binary -> string
  (** Content digest of the *whole* binary (machine code and debug
      sections): the key of the trace and metrics tiers. Two binaries
      sharing it must be interchangeable for any measurement. *)

  val binary_cost_key : binary -> string
  (** Key of the benchmark-cost tier. Execution cost depends on the
      machine code alone, so this may be the (coarser) .text digest —
      sharing costs between binaries that differ only in debug info. *)

  val compile : subject -> config -> binary
  val trace : subject -> binary -> trace
  val metrics : subject -> binary -> trace -> metrics
  val bench_compile : bench_subject -> config -> binary
  val bench_run : bench_subject -> binary -> int
end

module Make (D : DOMAIN) : sig
  type t

  (** The four job kinds of the measurement engine. *)
  type job =
    | Compile of D.subject * D.config
    | Trace of D.subject * D.config
    | Measure of D.subject * D.config
    | BenchCost of D.bench_subject * D.config

  type result =
    | Binary of D.binary
    | Traced of D.trace * D.binary
    | Measured of D.metrics * D.binary
    | Cost of int

  val create : ?workers:int -> ?store:Disk_store.t -> unit -> t
  (** A fresh engine: empty caches, zeroed counters, and a worker pool
      of the given size (default 1 = sequential). When [store] is
      given, every cache tier is backed by that persistent store: jobs
      already on disk are served without executing (counted as hits),
      and fresh results are published back — so a second run of the
      same workload is warm, and an interrupted run resumes where it
      stopped. *)

  val run : t -> job -> result

  (** Typed wrappers over {!run}: *)

  val compile : t -> D.subject -> D.config -> D.binary
  (** Tier-1 cached: keyed by (subject AST digest, config
      fingerprint). *)

  val peek_compile : t -> D.subject -> D.config -> D.binary option
  (** Tier-1 lookup without side effects: no compile, no counter bump.
      Sweep planners use it to drop already-cached configurations before
      grouping the rest by shared pipeline prefix. *)

  val seed_compile : t -> D.subject -> D.config -> (unit -> D.binary) -> D.binary
  (** [seed_compile t s c produce] publishes a binary produced outside
      the engine (e.g. an incremental prefix-cache suffix compile) under
      the ordinary tier-1 key — the regular hit/miss counters fire, and
      every later {!compile} of the same job is a plain tier-1 hit.
      [produce] must return exactly what [D.compile s c] would. *)

  val peek_bench_compile : t -> D.bench_subject -> D.config -> D.binary option
  (** {!peek_compile} for the benchmark tier. *)

  val seed_bench_compile :
    t -> D.bench_subject -> D.config -> (unit -> D.binary) -> D.binary
  (** {!seed_compile} for the benchmark tier. *)

  val trace : t -> D.subject -> D.config -> D.trace * D.binary
  (** Tier-2 cached: keyed by (subject digest, binary digest). *)

  val measure : t -> D.subject -> D.config -> D.metrics * D.binary
  (** Tier-2 cached. Two configurations of the same subject whose
      binaries share a content digest share one metrics object — the
      engine-wide generalization of the paper's discard optimization. *)

  val bench_cost : t -> D.bench_subject -> D.config -> int
  (** Tier-1 cached compile, tier-2 cached cost keyed by
      {!DOMAIN.binary_cost_key} (same .text, same cost — the benchmark
      never re-runs). *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** The engine's pool, see {!Pool.map}. Caches are domain-safe, so
      [f] may issue engine jobs. *)

  val workers : t -> int
  val stats : t -> Stats.t

  val store : t -> Disk_store.t option
  (** The persistent store this engine was created with, if any. *)

  val memo : t -> name:string -> (unit -> 'a Memo.t)
  (** [memo t ~name ()] is a fresh memo table wired to this engine's
      counters — for derived results (rankings, trade-off points,
      speedup rows) that are keyed by configuration fingerprint but
      computed outside the four core job kinds. *)
end
