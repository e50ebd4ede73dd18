(** Configuration tuning (Section III-B, second component): build the
    [Ox-dy] configurations from a ranking and measure both sides of the
    trade — debuggability on the test suite, performance on the SPEC
    analogs. All measurement is engine-cached ({!Measure_engine});
    [engine] parameters default to {!Measure_engine.default}. *)

val dy_config : Ranking.level_ranking -> y:int -> Config.t
(** Disable the top-[y] ranked passes, with the paper's inliner
    exception: the general inliner toggle (gcc [inline], clang
    [Inliner]) is never disabled — only the more specific inlining
    flags participate. *)

type bench_run = { br_name : string; br_cost : int }

val bench_cost : ?engine:Measure_engine.t -> Suite_types.sprogram -> Config.t -> int
(** Total VM cost of one benchmark under a configuration (a cached
    engine [BenchCost] job; identical [.text] never re-runs). *)

type speedup_row = {
  sp_bench : string;
  sp_speedup : float;  (** over the O0 build of the same benchmark *)
}

val speedups_cached :
  ?engine:Measure_engine.t ->
  o0_costs:(string * int) list ->
  Suite_types.sprogram list ->
  Config.t ->
  speedup_row list * float
(** Per-benchmark speedups over the given O0 costs, plus the geometric
    mean. *)

val o0_costs :
  ?engine:Measure_engine.t -> Suite_types.sprogram list -> (string * int) list

val speedups :
  ?engine:Measure_engine.t ->
  Suite_types.sprogram list ->
  Config.t ->
  speedup_row list * float
(** {!speedups_cached} with O0 costs computed on the fly. *)

type config_point = {
  cp_config : Config.t;
  cp_debug : float;  (** average hybrid product over the test suite *)
  cp_speedup : float;  (** geomean speedup over O0 on SPEC *)
  cp_per_program : (string * float) list;
}

val measure_point :
  ?engine:Measure_engine.t ->
  Evaluation.prepared list ->
  o0_costs:(string * int) list ->
  Suite_types.sprogram list ->
  Config.t ->
  config_point
(** Joint debug + performance measurement of a configuration (a Figure 2
    point). *)

(** {1 Search over the 2^N disable-set space}

    The greedy [Ox-dy] sweep above can only disable prefix sets of one
    ranked order; {!search} explores arbitrary disable sets with
    pluggable strategies, spending the pass-prefix sweep planner so
    each candidate costs only a pipeline suffix. Strictly seeded
    ({!Search_rng} key paths, batch evaluation on the engine's ordered
    pool): equal (strategy, seed, budget) produce byte-identical
    results at any worker count. Evaluations persist in the engine's
    store under the ["search-point"] cache, so a killed search resumes
    ([search/resumed] counter). *)

type strategy =
  | Random_sampling  (** uniform seeded subsets *)
  | Hill_climb  (** single-flip ascent, restarts, annealed acceptance *)
  | Bandit  (** exponential weights over per-pass arms *)

val strategy_name : strategy -> string
(** ["random"], ["hill-climb"], ["bandit"] — the CLI/API spelling. *)

val strategy_of_string : string -> strategy option

type search_opts = {
  so_strategy : strategy;
  so_budget : int;  (** candidate evaluations, seeds included *)
  so_seed : int;
  so_debug_weight : float;  (** scalarization weight on the debug axis *)
  so_speed_weight : float;  (** ... and on the speedup axis *)
  so_seeds : Config.t list;
      (** evaluated first (within budget): known-good points — e.g. the
          greedy dy configurations — so the front weakly dominates them
          by construction and the search starts from their basins *)
}

val default_search_opts : search_opts
(** Hill-climb, budget 64, seed 1, equal weights, no seeds. *)

type frontier_point = {
  fp_config : Config.t;
  fp_debug : float;
  fp_speedup : float;
}

type search_result = {
  sr_base : Config.t;
  sr_strategy : strategy;
  sr_seed : int;
  sr_budget : int;
  sr_evaluated : int;  (** distinct configurations measured *)
  sr_resumed : int;  (** of those, served from the persistent store *)
  sr_frontier : frontier_point list;
      (** the Pareto front of every evaluated point, sorted by
          increasing debug product (metric-duplicate configs collapse
          to the lexicographically-smallest name) *)
  sr_dominated : int;  (** evaluated points not on the front *)
}

val pass_universe : Config.t -> string list
(** The toggleable passes of a base level, with the inliner
    exception. *)

val search :
  ?engine:Measure_engine.t ->
  Evaluation.prepared list ->
  o0_costs:(string * int) list ->
  Suite_types.sprogram list ->
  base:Config.t ->
  opts:search_opts ->
  search_result
(** Run one search. Bumps the [search/*] rows of
    {!Util.Counters.global} ({!Measure_engine.search_counters}):
    [candidates], [rounds],
    [suffix_shared] (sweep compiles that reused a pipeline prefix),
    [resumed], [frontier], [dominated]. *)

val weak_dominance_margin :
  frontier_point list -> (float * float) list -> float
(** [weak_dominance_margin front points] — for each (debug, speedup)
    point, the best over front entries of [min (df - dp, sf - sp)],
    then the minimum over points: non-negative iff the front weakly
    dominates every point. [infinity] on no points, [neg_infinity] on
    an empty front with points. *)
