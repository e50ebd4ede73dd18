(** The repository's measurement engine: {!Engine.Make} instantiated
    over the DebugTuner toolchain. This is the single entry point for
    all measurement — [Ranking], [Tuning], [Experiments], the bench
    harness and the CLI all issue their compile / trace / measure /
    benchmark jobs here, sharing one two-tier content-addressed cache:

    - tier 1, keyed by (AST digest, {!Config.fingerprint}): compiled
      binaries — a configuration is compiled once per program no matter
      how many tables ask for it;
    - tier 2, keyed by (subject digest, binary digest): traces, metric
      records and benchmark costs — two configurations whose binaries
      have identical content share one measurement, generalizing the
      paper's Section III-A discard optimization engine-wide. Metric
      and trace results key on {!Emit.binary.full_digest} (identical
      [.text] can still carry different debug info, and the metrics see
      it); benchmark costs key on the coarser
      {!Emit.binary.text_digest}, since execution cost depends on the
      machine code alone. *)

module Domain_impl = struct
  type config = Config.t
  type subject = Evaluation.prepared
  type bench_subject = Suite_types.sprogram
  type binary = Emit.binary
  type trace = Debugger.trace
  type metrics = Metrics.all_methods

  let config_key = Config.fingerprint
  let subject_ast_key (p : Evaluation.prepared) = p.Evaluation.ast_digest
  let subject_key (p : Evaluation.prepared) = p.Evaluation.content_digest

  (* Benchmark programs carry no corpus; their content address is the
     source plus the harness list (entries and seed workloads). *)
  let bench_subject_key (p : Suite_types.sprogram) =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string (p.Suite_types.p_source, p.Suite_types.p_harnesses) []))

  let binary_key (b : Emit.binary) = b.Emit.full_digest
  let binary_cost_key (b : Emit.binary) = b.Emit.text_digest

  (* Each worker function below runs only on a cache miss, so its span
     measures actual work (hits never reach it). The [Obs.enabled]
     guard keeps the disabled path allocation-free. *)
  let span name subject f =
    if not (Obs.enabled ()) then f ()
    else begin
      Obs.count ("engine/" ^ name);
      Obs.Span.wrap ("engine:" ^ name) ~args:[ ("subject", subject) ] f
    end

  let pname (p : Evaluation.prepared) =
    p.Evaluation.program.Suite_types.p_name

  let compile p config =
    span "compile" (pname p) (fun () -> Evaluation.compile p config)

  let trace (p : Evaluation.prepared) bin =
    span "trace" (pname p) (fun () -> Evaluation.trace_config_bin p bin)

  let metrics p bin tr =
    span "metrics" (pname p) (fun () ->
        Evaluation.metrics_of_trace p bin tr)

  let bench_compile (p : Suite_types.sprogram) config =
    span "bench_compile" p.Suite_types.p_name (fun () ->
        Toolchain.compile (Suite_types.ast p) ~config
          ~roots:(Suite_types.roots p))

  (** Total VM cost of every harness seed (the paper's SPEC timing; the
      median-of-three degenerates to one deterministic run). *)
  let bench_run (p : Suite_types.sprogram) (bin : Emit.binary) =
    span "bench_run" p.Suite_types.p_name @@ fun () ->
    List.fold_left
      (fun acc (h : Suite_types.harness) ->
        let inputs =
          if h.Suite_types.h_seeds = [] then [ [] ] else h.Suite_types.h_seeds
        in
        List.fold_left
          (fun acc input ->
            let r =
              Vm.run bin ~entry:h.Suite_types.h_entry ~input Vm.default_opts
            in
            if r.Vm.timed_out then
              invalid_arg ("bench timed out: " ^ p.Suite_types.p_name);
            acc + r.Vm.cost)
          acc inputs)
      0 p.Suite_types.p_harnesses
end

include Engine.Make (Domain_impl)

(* Bracket every disk-store I/O with an [Obs] span + counter. Installed
   at module init so the engine library itself never depends on
   lib/obs; free when observability is off. *)
let () =
  Engine.Disk_store.set_io_wrap
    (Some
       {
         Engine.Disk_store.wrap =
           (fun name args f ->
             if not (Obs.enabled ()) then f ()
             else begin
               Obs.count name;
               Obs.Span.wrap name ~args f
             end);
       })

(* The serialization schema stamp: [Marshal] is type-unsafe, so any
   change to the marshalled value layouts (or the compiler that decides
   them) must read as "stale entry, recompute". Bump the leading tag
   whenever a persisted type changes shape. *)
let cache_schema = "debugtuner-v1/" ^ Sys.ocaml_version

let cache_dir_of ?dir () =
  match dir with
  | Some d -> d
  | None -> (
      match Sys.getenv_opt "DEBUGTUNER_CACHE" with
      | Some d when d <> "" -> d
      | _ -> "_cache")

let open_store ?dir ?max_bytes () =
  Engine.Disk_store.create ?max_bytes ~schema:cache_schema
    ~dir:(cache_dir_of ?dir ()) ()

(* The store behind {!Vm.Decode}'s persistence seam (satellite of the
   decoded-program cache): process-global because the decode cache
   itself is — the last engine created with a store wins, which in
   every real deployment (CLI one-shot, daemon, bench) is the only
   one. *)
let decode_store : Engine.Disk_store.t option ref = ref None

let create ?workers ?store () =
  (match store with Some _ -> decode_store := store | None -> ());
  create ?workers ?store ()

let default_instance = lazy (create ())

(** The process-wide shared engine, for callers that do not thread an
    instance (CLI one-shots, tests). Experiment contexts create their
    own so cache statistics are per-run. *)
let default () = Lazy.force default_instance

(** The paper's headline number for a configuration, engine-cached. *)
let product t prepared config =
  (fst (measure t prepared config)).Metrics.m_hybrid.Metrics.product

(* ------------------------------------------------------------------ *)
(* Pass-prefix incremental compilation (DESIGN.md "Incremental
   compilation"). A sweep's configurations mostly run the identical
   pipeline prefix up to their first divergence; the planner below
   groups a config set by shared prefix, executes each shared segment
   once through [Toolchain.advance], and schedules only the divergent
   suffixes ([Toolchain.resume]) on the Domain pool. Results are seeded
   into the ordinary tier-1 table, so they are byte-identical and
   indistinguishable from straight-line compiles to every consumer. *)

let prefix_cache_enabled = ref true

module Counters = Util.Counters

(* The planner's activity, as prefix/* rows of {!Counters.global}:
   [hits] (suffix compiles that skipped a prefix), [misses] (sweep
   compiles with nothing to share), [snapshot_bytes], [passes_skipped]
   and [merged] (configs served a sibling's binary outright: every
   contested entry between them was a no-op on this subject, so not
   even the backend ran for them, see [plan_family]). *)
let prefix_rows =
  [ "prefix/hits"; "prefix/misses"; "prefix/snapshot_bytes";
    "prefix/passes_skipped"; "prefix/merged" ]

let prefix_counters () =
  List.map (fun n -> (n, Counters.get Counters.global n)) prefix_rows

let reset_prefix_counters () = Counters.reset Counters.global ~prefix:"prefix/"
let prefix_add name n = Counters.add Counters.global ("prefix/" ^ name) n

(* Tuning-search counters (candidates evaluated, suffix-shared
   compiles, frontier size, dominated points, store-resumed
   evaluations), as search/* rows; the bench dominance gate and the
   resume test read them. *)
let search_counters () =
  List.map
    (fun (n, v) -> (String.sub n 7 (String.length n - 7), v))
    (Counters.rows ~prefix:"search/" Counters.global)

let reset_search_counters () = Counters.reset Counters.global ~prefix:"search/"

(* Key decoded programs into the persistent store: a warm daemon (or a
   second process sharing --cache-dir) skips re-decoding every binary
   it executes. A [None] result ("the fast core cannot run this
   binary") is persisted too — rediscovering it costs a full decode
   attempt. Failures degrade to a miss, exactly like every other store
   consumer; a payload that fails to unmarshal is evicted. *)
let () =
  Vm.Decode.set_persist
    (Some
       {
         Vm.Decode.ps_get =
           (fun key ->
             match !decode_store with
             | None -> None
             | Some s -> (
                 match Engine.Disk_store.get s ~cache:"vm-decode" ~key with
                 | None -> None
                 | Some data -> (
                     match
                       (Marshal.from_string data 0 : Vm.Decode.program option)
                     with
                     | p -> Some p
                     | exception _ ->
                         Engine.Disk_store.invalidate s ~cache:"vm-decode" ~key;
                         None)));
         ps_put =
           (fun key p ->
             match !decode_store with
             | None -> ()
             | Some s -> (
                 match Marshal.to_string p [] with
                 | data -> Engine.Disk_store.put s ~cache:"vm-decode" ~key data
                 | exception _ -> ()));
         ps_note =
           (fun hit ->
             if !decode_store <> None then
               Counters.add Counters.global
                 (if hit then "vm/decode_hits" else "vm/decode_misses")
                 1);
       })

let prefix_span name args f =
  if not (Obs.enabled ()) then f ()
  else begin
    Obs.count name;
    Obs.Span.wrap name ~args f
  end

(* One unit of sweep work: a suffix compile forked from a shared
   checkpoint, a group of configurations proven state-identical at the
   end of the pipeline (one backend run serves them all), or a
   configuration with no shareable prefix (singleton pipeline family),
   compiled straight. *)
type sweep_job =
  | Suffix of Config.t * Toolchain.checkpoint
  | Merged of Config.t list * Toolchain.checkpoint
  | Straight of Config.t

(* The prefix-sharing the divergence trie alone guarantees, as leaf
   depths: purely structural (a function of the enabled-bit vectors,
   never of pass behaviour). This is what the prefix/* counters report
   — [passes_skipped] is exactly the sum of shared-prefix lengths, the
   invariant the property tests pin down — while the execution walk in
   [plan_family] is free to do strictly better via no-op merging,
   surfaced separately as prefix/merged. *)
let structural_depths n tagged =
  let depths = ref [] in
  let note idx (c, _) = depths := (c, idx) :: !depths in
  let rec go idx tagged =
    match tagged with
    | [] -> ()
    | [ single ] -> note idx single
    | ((_, b0) :: rest) as all ->
        let k = ref idx in
        while
          !k < n && List.for_all (fun (_, b) -> b.(!k) = b0.(!k)) rest
        do
          incr k
        done;
        let k = !k in
        if k > idx then begin
          if k >= n then List.iter (note k) all else go k all
        end
        else if idx >= n then
          (* Identical bit vectors under distinct fingerprints (disabled
             passes outside this pipeline; always the case at O0, where
             the pipeline is empty). *)
          List.iter (note idx) all
        else begin
          let yes, no = List.partition (fun (_, b) -> b.(idx)) all in
          go idx yes;
          go idx no
        end
  in
  go 0 tagged;
  !depths

(* Divergence-tree construction for one pipeline family (all configs
   share compiler + level, hence the same pass table). Trunk segments on
   which every remaining config agrees are executed once via [advance];
   at the first disagreeing entry the contested entry is probed: it runs
   once on the enabled side, and if the state digest (and accumulated
   backend options) did not change, the entry was a no-op on this
   subject, the split is immaterial, and both sides continue together —
   on real suite programs most disabled passes are no-ops, so most
   sweep configurations merge all the way to the end of the pipeline
   and share a single backend run ([Merged]). Only genuinely divergent
   groups are partitioned and planned recursively; singletons run their
   unique suffix as a leaf [resume]. Deterministic: configs keep their
   input order, the enabled branch is planned first. *)
let plan_family ~ast ~roots configs =
  let rep = List.hd configs in
  let entries = Array.of_list (Toolchain.pipeline rep) in
  let n = Array.length entries in
  (* Raw bits drive the structural counters (the shared-prefix model the
     property tests pin down); effective bits — which fold in the gcc
     gated inliners' master-"inline" read — drive the execution walk,
     because only they determine an entry's behaviour. *)
  let bits c =
    Array.map (fun e -> Config.enabled c (Toolchain.entry_name e)) entries
  in
  let effective c = Array.map (fun e -> Toolchain.entry_effective c e) entries in
  List.iter
    (fun (_, depth) ->
      if depth > 0 then begin
        prefix_add "hits" 1;
        prefix_add "passes_skipped" depth
      end
      else prefix_add "misses" 1)
    (structural_depths n (List.map (fun c -> (c, bits c)) configs));
  let tagged = List.map (fun c -> (c, effective c)) configs in
  let note_capture cp =
    prefix_add "snapshot_bytes" (Toolchain.checkpoint_bytes cp)
  in
  let cp0 =
    prefix_span "prefix:snapshot" [ ("upto", "0") ] (fun () ->
        Toolchain.start ast ~config:rep ~roots)
  in
  note_capture cp0;
  let jobs = ref [] in
  let rec plan cp tagged =
    let idx = Toolchain.checkpoint_index cp in
    match tagged with
    | [] -> ()
    | [ (c, _) ] -> jobs := Suffix (c, cp) :: !jobs
    | _ when idx >= n ->
        (* Two or more configs state-identical at the end of the
           pipeline: one backend run serves the whole group. *)
        jobs := Merged (List.map fst tagged, cp) :: !jobs
    | ((c0, b0) :: rest) as all ->
        let j = ref idx in
        while
          !j < n && List.for_all (fun (_, b) -> b.(!j) = b0.(!j)) rest
        do
          incr j
        done;
        let j = !j in
        if j > idx then begin
          (* Agreed segment [idx, j): execute it once. When every entry
             in it is disabled, [advance] shares the snapshot and there
             is no new capture to account for. *)
          let cp' =
            prefix_span "prefix:snapshot"
              [ ("upto", string_of_int j) ]
              (fun () -> Toolchain.advance ~upto:j cp c0)
          in
          let executed = ref false in
          for i = idx to j - 1 do
            if b0.(i) then executed := true
          done;
          if !executed then note_capture cp';
          plan cp' all
        end
        else begin
          (* Contested entry [idx]: probe it on the enabled side. *)
          let yes, no = List.partition (fun (_, b) -> b.(idx)) all in
          let rep_yes = fst (List.hd yes) in
          let cp_yes =
            prefix_span "prefix:snapshot"
              [ ("upto", string_of_int (idx + 1)) ]
              (fun () -> Toolchain.advance ~upto:(idx + 1) cp rep_yes)
          in
          if
            Toolchain.checkpoint_digest cp_yes = Toolchain.checkpoint_digest cp
            && Toolchain.checkpoint_opts cp_yes = Toolchain.checkpoint_opts cp
          then
            (* The entry was a no-op on this subject: skipping it and
               running it coincide, so the split is immaterial and
               everyone continues from the post-entry state. *)
            plan cp_yes all
          else begin
            note_capture cp_yes;
            plan cp_yes yes;
            plan cp no
          end
        end
  in
  plan cp0 tagged;
  List.rev !jobs

(* The generic sweep driver behind [compile_sweep] and
   [bench_compile_sweep]. [peek]/[seed]/[straight] abstract over the
   two tier-1 tables; [straight c] must be the exact producer the
   engine's own compile path runs. *)
let sweep t ~ast ~roots ~peek ~seed ~straight configs =
  let seen = Hashtbl.create 16 in
  let fresh c =
    let fp = Config.fingerprint c in
    if Hashtbl.mem seen fp then false
    else begin
      Hashtbl.add seen fp ();
      true
    end
  in
  let todo =
    List.filter (fun c -> fresh c && Option.is_none (peek c)) configs
  in
  if todo = [] then ()
  else if not !prefix_cache_enabled then
    (* Escape hatch (--no-prefix-cache): same compiles, no snapshots;
       still parallel, still seeded through the ordinary tier-1 path. *)
    ignore
      (map t (fun c -> seed c (fun () -> straight c)) todo : unit list)
  else begin
    (* Group by pipeline family, preserving input order. *)
    let families = ref [] in
    List.iter
      (fun c ->
        let key = (c.Config.compiler, c.Config.level) in
        match List.assoc_opt key !families with
        | Some cell -> cell := c :: !cell
        | None -> families := !families @ [ (key, ref [ c ]) ])
      todo;
    let jobs =
      List.concat_map
        (fun (_, cell) ->
          match List.rev !cell with
          | [ c ] -> [ Straight c ]
          | group -> plan_family ~ast ~roots group)
        !families
    in
    ignore
      (map t
         (fun job ->
           match job with
           | Straight c ->
               prefix_add "misses" 1;
               seed c (fun () -> straight c)
           | Suffix (c, cp) ->
               seed c (fun () ->
                   prefix_span "prefix:resume"
                     [ ("config", Config.fingerprint c) ]
                     (fun () -> Toolchain.resume ~from:cp c))
           | Merged (cs, cp) ->
               (* One backend run; every config in the group is seeded
                  the same (byte-identical) binary. *)
               let rep = List.hd cs in
               let bin =
                 lazy
                   (prefix_span "prefix:resume"
                      [ ("config", Config.fingerprint rep) ]
                      (fun () -> Toolchain.resume ~from:cp rep))
               in
               prefix_add "merged" (List.length cs - 1);
               List.iter (fun c -> seed c (fun () -> Lazy.force bin)) cs)
         jobs
        : unit list)
  end

let compile_sweep t (p : Evaluation.prepared) configs =
  sweep t ~ast:p.Evaluation.ast ~roots:p.Evaluation.roots
    ~peek:(fun c -> peek_compile t p c)
    ~seed:(fun c produce -> ignore (seed_compile t p c produce : Emit.binary))
    ~straight:(fun c -> Domain_impl.compile p c)
    configs

let bench_compile_sweep t (sp : Suite_types.sprogram) configs =
  sweep t ~ast:(Suite_types.ast sp) ~roots:(Suite_types.roots sp)
    ~peek:(fun c -> peek_bench_compile t sp c)
    ~seed:(fun c produce ->
      ignore (seed_bench_compile t sp c produce : Emit.binary))
    ~straight:(fun c -> Domain_impl.bench_compile sp c)
    configs

(** One flat, sorted [(name, value)] table of every counter this engine
    can see: its own [engine/*] rows and its store's [store/*] rows, the
    process-wide rows of {!Counters.global} ([sanitize/*], [prefix/*],
    [shard/*], [search/*], [vm/*]) and the live [Obs] session's
    [obs/*] rows — so [bench --stats] and the CLI render one table
    through one code path, text or JSON alike. *)
let stats_table t : (string * int) list =
  List.sort compare
    (Counters.rows (stats t)
    @ (match store t with
      | None -> []
      | Some s ->
          List.map (fun (n, v) -> ("store/" ^ n, v)) (Engine.Disk_store.counters s))
    @ Counters.rows Counters.global
    @ List.map (fun (n, v) -> ("obs/" ^ n, v)) (Obs.current_counters ()))

(** [stats_delta ~before after] subtracts two {!stats_table} snapshots
    row-wise (rows absent from [before] count from zero; zero-delta
    rows are dropped), preserving [after]'s sorted order. *)
let stats_delta ~before after : (string * int) list =
  List.filter_map
    (fun (name, v) ->
      let v0 =
        match List.assoc_opt name before with Some v0 -> v0 | None -> 0
      in
      if v - v0 = 0 then None else Some (name, v - v0))
    after
