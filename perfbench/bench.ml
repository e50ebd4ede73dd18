(* The repository benchmark: three seeded workloads over the DebugTuner
   reproduction, one process each, no more threads, engine workers or
   connections than the machine has cores.

     bench.exe --workload corpus-eval|tune|serve --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics over a fixed amount of work
   sized to take about S seconds, every time in reference-host seconds
   (see calib.ml); --trace 1 runs a fixed, seed-determined amount of work and reports
   the per-layer metrics, whose deterministic counts repeat exactly for
   one seed. The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}. Why each workload
   exists, which layers it loads, and which end-to-end metric each layer
   metric should move are in README.md next to this file. *)

module C = Debugtuner.Config
module E = Debugtuner.Experiments
module T = Debugtuner.Toolchain
module Ev = Debugtuner.Evaluation
module ME = Debugtuner.Measure_engine
module J = Api_json
module L = Layers

let now = L.now

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: bench.exe --workload corpus-eval|tune|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when seconds > 0.0 && List.mem !workload [ "corpus-eval"; "tune"; "serve" ]
    ->
      { workload = !workload; seed; seconds; trace }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Small utilities                                                     *)

let sorted l = List.sort compare l

(** Nearest-rank percentile, [q] in [0, 1]; 0 is the minimum. *)
let pctl q l =
  match sorted l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      List.nth s (max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l = pctl 0.5 l
let sum l = List.fold_left ( +. ) 0.0 l

let cpu = Calib.cpu

(** Peak resident set of this process, MiB (Linux [VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  match (Unix.stat src).Unix.st_kind with
  | Unix.S_DIR ->
      Unix.mkdir dst 0o755;
      Array.iter
        (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
        (Sys.readdir src)
  | _ ->
      let ic = open_in_bin src in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin dst in
      output_string oc data;
      close_out oc

(* All scratch state (stores, the daemon socket) lives under the
   checkout's build directory, named relative to it so the socket path
   stays short. Nothing in it is deleted before the run ends: on a
   filesystem mounted with online discard, deletions queue device work
   that would slow whatever is measured next. *)
let scratch = Filename.concat "_build" (Printf.sprintf "perfbench-%d" (Unix.getpid ()))

let fresh_path =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat scratch (Printf.sprintf "%s-%d" tag !n)

let fresh_dir tag =
  let d = fresh_path tag in
  Unix.mkdir d 0o755;
  d

(** Wait until the filesystems have absorbed earlier writes and
    deletions (sync(1)), so that neither the build nor an earlier run
    leaves device work behind in the measured phase. *)
let settle_disk () =
  match Unix.create_process "sync" [| "sync" |] Unix.stdin Unix.stderr Unix.stderr with
  | pid -> ignore (Unix.waitpid [] pid)
  | exception Unix.Unix_error _ -> ()

let nproc = Domain.recommended_domain_count ()
let digest_hex s = Digest.to_hex (Digest.string s)

(** A generator for one named stream of the workload seed. *)
let rng seed label = Random.State.make [| seed; Hashtbl.hash label |]
let pick st l = List.nth l (Random.State.int st (List.length l))

(* ------------------------------------------------------------------ *)
(* Outcome accounting and the output check                             *)

let attempted = ref 0
let failed = ref 0
let fail why =
  incr failed;
  Printf.printf "FAILED: %s\n%!" why

let harness_inputs (h : Suite_types.harness) =
  if h.Suite_types.h_seeds = [] then [ [] ] else h.Suite_types.h_seeds

(** The program's outputs on [input] from the independent source
    interpreter; [None] past its step budget (no ground truth). *)
let reference ast ~entry ~input =
  match Minic.Interp.run ~max_steps:2_000_000 ast ~entry ~input with
  | out -> Some out
  | exception Minic.Interp.Step_limit -> None

(** Compile [p] at [cfg] and run every harness seed input on the VM
    against {!reference}; [false] on any disagreement. *)
let outputs_agree (p : Suite_types.sprogram) cfg =
  let ast = Suite_types.ast p in
  let bin = T.compile ast ~config:cfg ~roots:(Suite_types.roots p) in
  List.for_all
    (fun (h : Suite_types.harness) ->
      List.for_all
        (fun input ->
          let entry = h.Suite_types.h_entry in
          match reference ast ~entry ~input with
          | None -> true
          | Some expected ->
              let r = Vm.run bin ~entry ~input Vm.default_opts in
              (not r.Vm.timed_out) && r.Vm.output = expected)
        (harness_inputs h))
    p.Suite_types.p_harnesses

let check_outputs what p cfg =
  if not (outputs_agree p cfg) then
    fail (Printf.sprintf "%s: %s at %s disagrees with the interpreter" what
            p.Suite_types.p_name (C.name cfg))

(* ------------------------------------------------------------------ *)
(* Result rendering                                                    *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

let print_result metrics =
  List.iter
    (fun x -> Printf.printf "  %-36s %18.6f %s\n" x.m_name x.m_value x.m_unit)
    metrics;
  let failed_frac =
    if !attempted = 0 then 1.0 else float_of_int !failed /. float_of_int !attempted
  in
  Printf.printf "  %-36s %18.6f %s\n" "failed_frac" failed_frac "frac";
  let correct = !failed = 0 && !attempted > 0 in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int (max 1 !attempted)));
            ("failed", J.Num (float_of_int !failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun x ->
                     ( x.m_name,
                       J.Obj [ ("value", J.Num x.m_value); ("unit", J.Str x.m_unit) ] ))
                   metrics) );
          ]))

(** A measured piece of work, in raw host seconds: its wall time, that
    wall time less the measuring thread's run delay and the steal time
    (spread over the CPUs the process kept busy), its CPU time, and the
    host speed around it (see calib.ml). *)
type span = { raw : float; busy : float; raw_cpu : float; speed : float }

(** [measure cal ~reps f] runs [f] between two calibration samples of
    [reps] kernel runs (about 8 ms each). [before] and [after] run
    between the samples but untimed: they start and stop what must not
    run while the kernel does. *)
let measure ?(reps = 5) ?(before = ignore) ?(after = ignore) cal f =
  let (r, dt, dc, delay, stolen), speed =
    Calib.around cal ~reps (fun () ->
        before ();
        let c0 = cpu () and d0 = Calib.run_delay () and s0 = Calib.steal () in
        let t0 = now () in
        let r = f () in
        let dt = now () -. t0 in
        let m = (r, dt, cpu () -. c0, Calib.run_delay () -. d0, Calib.steal () -. s0) in
        after ();
        m)
  in
  let busy_cpus = Float.max 1.0 (Float.min (float_of_int nproc) (dc /. dt)) in
  let busy = Float.max 0.0 (dt -. delay -. (stolen /. busy_cpus)) in
  (r, { raw = dt; busy; raw_cpu = dc; speed })

(** Spans in the order measured, each with its speed replaced by the
    median over it and its three neighbours on either side: one sample
    pair carries noise of its own, while the host's speed drifts over
    seconds. *)
let smoothed spans =
  let a = Array.of_list spans in
  let n = Array.length a in
  Array.to_list
    (Array.mapi
       (fun i sp ->
         let lo = max 0 (i - 3) and hi = min (n - 1) (i + 3) in
         { sp with speed = median (List.init (hi - lo + 1) (fun j -> a.(lo + j).speed)) })
       a)

(** End-to-end metrics of a measured phase, times in reference seconds.
    [setups] are the set-ups and [spans] the measured work, each in the
    order measured and paired with the raw latencies of the requests it
    holds; [items] the items completed. A request's latency loses the
    share of its span's wall time that [busy] leaves out, and is scaled
    by the span's speed. The same figures in raw host seconds are
    printed for comparison. *)
let end_to_end ~setups ~spans ~items =
  let setups = smoothed setups
  and spans = List.combine (smoothed (List.map fst spans)) (List.map snd spans) in
  let lat =
    List.concat_map
      (fun (sp, ls) ->
        let scale = sp.speed *. sp.busy /. Float.max 1e-9 sp.raw in
        List.map (fun l -> (l *. scale, l)) ls)
      spans
  in
  let spans = List.map fst spans in
  Printf.printf "samples: %d set-ups, %d requests, %d items\n" (List.length setups)
    (List.length lat) items;
  let speeds = List.map (fun sp -> sp.speed) (setups @ spans) in
  Printf.printf "host speed (reference s per host s): median %.3f, range %.3f-%.3f over %d spans\n"
    (median speeds) (pctl 0.0 speeds) (pctl 1.0 speeds) (List.length speeds);
  let figures setup_of wall_of cpu_of lat_of =
    let lat = List.map lat_of lat in
    let per_item x = 1000.0 *. x /. float_of_int (max 1 items) in
    [
      m "setup_s" "s" (median (List.map setup_of setups));
      m "throughput_per_s" "1/s" (float_of_int items /. sum (List.map wall_of spans));
      m "latency_p50_ms" "ms" (1000.0 *. median lat);
      m "latency_p99_ms" "ms" (1000.0 *. pctl 0.99 lat);
      m "peak_rss_mb" "MiB" (peak_rss_mb ());
      m "cpu_per_item_ms" "ms" (per_item (sum (List.map cpu_of spans)));
    ]
  in
  Printf.printf "raw host seconds: %s\n"
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%s %.6g" x.m_name x.m_value)
          (figures (fun sp -> sp.raw) (fun sp -> sp.raw) (fun sp -> sp.raw_cpu) snd)));
  figures
    (fun sp -> sp.busy *. sp.speed)
    (fun sp -> sp.busy *. sp.speed)
    (fun sp -> sp.raw_cpu *. sp.speed)
    fst

(* The per-layer metric set, reported on every workload: a layer the
   workload does not load reads 0. The eight named passes are the
   largest by busy time across the workloads. *)
let top_passes =
  [ "tree-dominator-opts"; "thread-jumps"; "tree-ch"; "inline";
    "expensive-opts"; "dce"; "LoopRotate"; "SimplifyCFG" ]

let leaf_layers =
  [ "minic.parse_s"; "fuzz.prepare_s"; "ir.lower_s"; "ir.snapshot_s";
    "passes.busy_s"; "backend.isel_s"; "backend.mach_s"; "backend.emit_s";
    "vm.decode_s"; "vm.run_s"; "debugger.trace_s"; "metrics.score_s";
    "engine.store_get_s"; "engine.store_put_s" ]

type counters = {
  store_hits : int;
  store_misses : int;
  store_writes : int;
  memo_hits : int;
  memo_misses : int;
  prefix_skipped : int;
  snapshot_bytes : int;
  candidates : int;
  suffix_shared : int;
}

(** Fold flat counter rows ([Measure_engine.stats_table] /
    [Api.Response.stats] names) into the deterministic counts. *)
let counters_of rows =
  let sum_if p =
    List.fold_left (fun a (n, v) -> if p n then a + v else a) 0 rows
  in
  let under pre suf n =
    String.starts_with ~prefix:pre n && String.ends_with ~suffix:suf n
  in
  let get n = sum_if (( = ) n) in
  {
    store_hits = sum_if (under "store/" "/hits");
    store_misses = sum_if (under "store/" "/misses");
    store_writes = sum_if (under "store/" "/writes");
    memo_hits = sum_if (under "engine/" "/hits");
    memo_misses = sum_if (under "engine/" "/misses");
    prefix_skipped = get "prefix/passes_skipped";
    snapshot_bytes = get "prefix/snapshot_bytes";
    candidates = get "search/candidates";
    suffix_shared = get "search/suffix_shared";
  }

(** The traced run's report. [total] is the traced wall time the
    [leaves] partition (with [unattributed_s] the remainder);
    [overhead] the traced over the untraced wall of the same work. *)
let per_layer rec_ (c : counters) ~total ~leaves ~overhead ~service_ms
    ~wait_ms ~executors =
  let s name = L.secs rec_ name and n name = float_of_int (L.count rec_ name) in
  let attributed = sum (List.map snd leaves) in
  let unattributed = total -. attributed in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("accounting_total_s", J.Num total);
            ("leaves", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) leaves));
            ("unattributed_s", J.Num unattributed);
          ]));
  Printf.printf "nproc %d, executors %d\n" nproc executors;
  let by_time =
    Hashtbl.fold
      (fun k v acc ->
        if String.starts_with ~prefix:"passes." k && k <> "passes.busy_s"
        then (v, k) :: acc else acc)
      rec_.L.secs []
  in
  Printf.printf "largest passes: %s\n"
    (String.concat ", "
       (List.filteri (fun i _ -> i < 10)
          (List.map (fun (v, k) -> Printf.sprintf "%s %.3fs" k v)
             (List.rev (List.sort compare by_time)))));
  let secs_metrics names = List.map (fun k -> m k "s" (s k)) names in
  let ratio = float_of_int c.memo_hits /. float_of_int (max 1 (c.memo_hits + c.memo_misses)) in
  secs_metrics [ "minic.parse_s"; "fuzz.prepare_s" ]
  @ [ m "fuzz.prepare_calls" "count" (n "fuzz.prepare_calls") ]
  @ secs_metrics [ "ir.lower_s"; "ir.snapshot_s" ]
  @ [
      m "ir.snapshot_bytes" "bytes" (float_of_int c.snapshot_bytes);
      m "engine.prefix_passes_skipped" "count" (float_of_int c.prefix_skipped);
    ]
  @ secs_metrics [ "passes.busy_s" ]
  @ [ m "passes.executed" "count" (n "passes.executed") ]
  @ secs_metrics (List.map L.pass_metric top_passes)
  @ secs_metrics [ "backend.isel_s"; "backend.mach_s"; "backend.emit_s"; "vm.decode_s"; "vm.run_s" ]
  @ [ m "vm.instrs" "count" (n "vm.instrs") ]
  @ secs_metrics [ "debugger.trace_s"; "metrics.score_s"; "engine.store_get_s"; "engine.store_put_s" ]
  @ [
      m "engine.store_hits" "count" (float_of_int c.store_hits);
      m "engine.store_misses" "count" (float_of_int c.store_misses);
      m "engine.store_writes" "count" (float_of_int c.store_writes);
      m "engine.memo_hit_ratio" "ratio" ratio;
      m "api.codec_s" "s" (s "api.codec_s");
      m "api.frame_bytes" "bytes" (n "api.frame_bytes");
      m "api_server.service_ms" "ms" service_ms;
      m "api_server.wait_ms" "ms" wait_ms;
      m "core.search_candidates" "count" (float_of_int c.candidates);
      m "core.suffix_shared" "count" (float_of_int c.suffix_shared);
      m "traced_total_s" "s" total;
      m "unattributed_s" "s" unattributed;
      m "trace_overhead_frac" "frac" overhead;
    ]

(** The number of pieces of work (jobs, searches, rounds) a run
    measures: [per_second] of them for each of the run's seconds, at
    least [least]. The work is fixed, not the time, so that it is the
    same on a slow host as on a fast one and for every version of the
    program: counts, memo hits and the memory peak repeat for one seed.
    The rates make a run last about its seconds on the development VM,
    whose host speed reads about 1. *)
let pieces a ~per_second ~least =
  max least (int_of_float (Float.round (a.seconds *. per_second)))

(** Whether a run has overrun: past three times its seconds of raw wall
    time it stops early, and says so, to stay within its time limit on
    a very slow host. *)
let overrun a spans =
  let over = sum (List.map (fun sp -> sp.raw) spans) > 3.0 *. a.seconds in
  if over then Printf.printf "stopped early: the host ran slow\n";
  over

(** A batch workload's spans in the order measured, each holding one
    request. *)
let batch_spans spans = List.rev_map (fun sp -> (sp, [ sp.raw ])) spans

let batch_leaves rec_ = List.map (fun k -> (k, L.secs rec_ k)) leaf_layers

(** Run [setup] [n] times, keeping the last result; the runs' spans
    feed [setup_s]. [discard] releases every result but the last;
    [after] runs untimed after each run, as in {!measure}. *)
let repeat_setup ?reps ?after cal n setup ~discard =
  let rec go i acc_t last =
    if i = n then (List.rev acc_t, Option.get last)
    else begin
      Option.iter discard last;
      Gc.compact ();
      let r, sp = measure ?reps ?after cal setup in
      go (i + 1) (sp :: acc_t) (Some r)
    end
  in
  go 0 [] None

(* ------------------------------------------------------------------ *)
(* Workload: corpus-eval                                               *)

(* The paper's measurement pipeline, per program: one unsharded
   Experiments job over a 16-program Corpus population (all three
   families) at two standard configurations, each job on a fresh,
   empty disk store that it only writes. *)

let eval_configs = [ C.make C.Gcc C.O2; C.make C.Clang C.O1 ]
let corpus_n = 16

(* Job [k] of a seed gets its own generator seed range. *)
let corpus_seed seed k = (abs seed mod 10_000 * 100_000) + (k * corpus_n) + 1
let job_of seed k = Api.Job.make ~configs:eval_configs ~seed:(corpus_seed seed k) ~corpus:corpus_n ()
let job_items = corpus_n * List.length eval_configs

(** A fresh context over a fresh, empty disk store. *)
let job_ctx () = Api.create_ctx ~store:(ME.open_store ~dir:(fresh_dir "store") ()) ()

let job_request seed k = Api.Request.Experiments { e_job = job_of seed k }

(** One Experiments request on a fresh store. *)
let run_job seed k = Api.execute (job_ctx ()) (job_request seed k)

let job_ok (r : Api.Response.t) = r.Api.Response.status = Api.Response.Ok

(* The warm-up job's corpus is the same at every seed, so set-up costs
   the same, and sits outside every measured job's seed range. *)
let warmup_job =
  Api.Request.Experiments
    { e_job = Api.Job.make ~configs:eval_configs ~seed:2_000_000_001 ~corpus:corpus_n () }

let checked_jobs = 10

let corpus_checks seed texts =
  (* Determinism: job 0 again, from scratch, renders identical tables. *)
  (match texts with
  | t0 :: _ ->
      let r = run_job seed 0 in
      if r.Api.Response.text <> t0 then fail "corpus-eval: job 0 tables differ on re-run";
      Printf.printf "digest tables %s\n" (digest_hex t0)
  | [] -> ());
  (* Output check: one seeded (program, config) item in each of up to
     [checked_jobs] seeded jobs. *)
  let st = rng seed "corpus-check" in
  let n = List.length texts in
  for _ = 1 to min n checked_jobs do
    let entries = Corpus.generate ~seed:(corpus_seed seed (Random.State.int st n)) ~n:corpus_n in
    let e = pick st entries in
    check_outputs "corpus-eval" e.Corpus.e_program (pick st eval_configs)
  done

let corpus_e2e cal a =
  let setups, () =
    repeat_setup cal 3 ~discard:ignore (fun () ->
        let r = Api.execute (job_ctx ()) warmup_job in
        if not (job_ok r) then fail "corpus-eval: warm-up job failed")
  in
  let spans = ref [] and items = ref 0 and texts = ref [] in
  let jobs = pieces a ~per_second:2.2 ~least:3 in
  let k = ref 0 in
  while !k < jobs && not (overrun a !spans) do
    let ctx = job_ctx () in
    let r, sp = measure cal (fun () -> Api.execute ctx (job_request a.seed !k)) in
    attempted := !attempted + job_items;
    if job_ok r then items := !items + job_items
    else begin
      failed := !failed + job_items;
      Printf.printf "FAILED: corpus-eval job %d: %s\n" !k r.Api.Response.text
    end;
    spans := sp :: !spans;
    texts := r.Api.Response.text :: !texts;
    incr k
  done;
  let metrics = end_to_end ~setups ~spans:(batch_spans !spans) ~items:!items in
  corpus_checks a.seed (List.rev !texts);
  metrics

(** The layer replay of one job: what the engine computes for every
    (program, config) item, as direct calls into each layer. *)
let corpus_replay rec_ seed k =
  let dir = fresh_dir "replay" in
  let store = ME.open_store ~dir () in
  let put cache v =
    let data = Marshal.to_string v [] in
    Engine.Disk_store.put store ~cache ~key:(digest_hex data) data
  in
  List.iter
    (fun (e : Corpus.entry) ->
      let p = e.Corpus.e_program in
      ignore (L.time_opt rec_ "minic.parse_s" (fun () -> Suite_types.ast p));
      let prepared =
        L.time_opt rec_ "fuzz.prepare_s" (fun () ->
            Ev.prepare ~fuzz_budget:e.Corpus.e_fuzz_budget p)
      in
      Option.iter (fun r -> L.add_n r "fuzz.prepare_calls" 1) rec_;
      put "prepare" prepared;
      List.iter
        (fun config ->
          let instrument = Option.fold ~none:Instrument.nop ~some:L.instrument rec_ in
          let bin =
            T.compile ~instrument prepared.Ev.ast ~config ~roots:prepared.Ev.roots
          in
          put "compile" bin;
          let prog = L.time_opt rec_ "vm.decode_s" (fun () -> Vm.Decode.decode bin) in
          List.iter
            (fun (hc : Ev.harness_corpus) ->
              List.iter
                (fun input ->
                  let r =
                    L.time_opt rec_ "vm.run_s" (fun () ->
                        Vm.Fast.run prog bin ~entry:hc.Ev.hc_harness.Suite_types.h_entry
                          ~args:[] ~input Vm.default_opts)
                  in
                  Option.iter (fun t -> L.add_n t "vm.instrs" r.Vm.instrs) rec_)
                hc.Ev.hc_inputs)
            prepared.Ev.corpora;
          let tr =
            L.time_opt rec_ "debugger.trace_s" (fun () -> Ev.trace_config_bin prepared bin)
          in
          put "trace" tr;
          let mm =
            L.time_opt rec_ "metrics.score_s" (fun () -> Ev.metrics_of_trace prepared bin tr)
          in
          put "measure" mm)
        eval_configs)
    (Corpus.generate ~seed:(corpus_seed seed k) ~n:corpus_n)

let traced_jobs = 3

let corpus_traced a =
  (* Real path: the deterministic counts and the tables digest. *)
  let rows = ref [] and texts = ref [] in
  for k = 0 to traced_jobs - 1 do
    let r = run_job a.seed k in
    attempted := !attempted + job_items;
    if not (job_ok r) then failed := !failed + job_items;
    rows := r.Api.Response.stats @ !rows;
    texts := r.Api.Response.text :: !texts
  done;
  corpus_checks a.seed (List.rev !texts);
  (* Layer replay of the same jobs, plain then traced. *)
  let replay rec_ =
    let t0 = now () in
    for k = 0 to traced_jobs - 1 do
      corpus_replay rec_ a.seed k
    done;
    now () -. t0
  in
  let plain = replay None in
  let rec_ = L.create () in
  L.wrap_store_io rec_;
  let total = replay (Some rec_) in
  L.unwrap_store_io ();
  per_layer rec_ (counters_of !rows) ~total ~leaves:(batch_leaves rec_)
    ~overhead:((total /. plain) -. 1.0) ~service_ms:0.0 ~wait_ms:0.0 ~executors:0

(* ------------------------------------------------------------------ *)
(* Workload: tune                                                      *)

(* DebugTuner's own job: hill-climb searches over gcc-O2's disable-set
   space, seeded with the greedy-dy ranking. A run sets up a fresh
   context — fuzzing the suite and measuring the ranking and the seed
   points — and then runs seeded searches back to back on it, as one
   tuning session would: a later search finds the candidates an earlier
   one measured in the context's memo tables. The searches of a run are
   the same for one seed, and a run does the same number of them on a
   slow host as on a fast one, so those hits repeat exactly. *)

let tune_budget = 24
let search_seed seed k = (abs seed mod 100_000 * 100) + k + 1

let frontier_digest (r : Debugtuner.Tuning.search_result) =
  digest_hex
    (String.concat "\n"
       (List.map
          (fun (f : Debugtuner.Tuning.frontier_point) ->
            Printf.sprintf "%s %.6f %.6f"
              (C.name f.Debugtuner.Tuning.fp_config)
              f.Debugtuner.Tuning.fp_debug f.Debugtuner.Tuning.fp_speedup)
          r.Debugtuner.Tuning.sr_frontier))

let tune_setup () =
  let ctx = E.create () in
  List.iter (fun c -> ignore (E.point ctx c)) (E.search_dy_seeds ctx);
  ctx

let search ctx seed k = E.run_search ~seed:(search_seed seed k) ~budget:tune_budget ctx

(** Determinism (search 0 again, on the context, which now holds the
    other searches' results) and the output check on a seeded
    suite program at each of two front configs. *)
let tune_checks seed ctx (r0 : Debugtuner.Tuning.search_result) =
  let again = search ctx seed 0 in
  if frontier_digest again <> frontier_digest r0 then
    fail "tune: search 0 front differs on re-run";
  Printf.printf "digest frontier %s\n" (frontier_digest r0);
  let st = rng seed "tune-check" in
  List.iteri
    (fun i (f : Debugtuner.Tuning.frontier_point) ->
      if i < 2 then check_outputs "tune" (pick st Programs.all) f.Debugtuner.Tuning.fp_config)
    r0.Debugtuner.Tuning.sr_frontier

let tune_e2e cal a =
  let setups, ctx = repeat_setup ~reps:21 cal 3 tune_setup ~discard:ignore in
  let spans = ref [] and items = ref 0 and first = ref None in
  let searches = pieces a ~per_second:0.8 ~least:3 in
  let k = ref 0 in
  while !k < searches && not (overrun a !spans) do
    let r, sp = measure ~reps:21 cal (fun () -> search ctx a.seed !k) in
    attempted := !attempted + r.Debugtuner.Tuning.sr_evaluated;
    items := !items + r.Debugtuner.Tuning.sr_evaluated;
    spans := sp :: !spans;
    if !first = None then first := Some r;
    incr k
  done;
  let metrics = end_to_end ~setups ~spans:(batch_spans !spans) ~items:!items in
  tune_checks a.seed ctx (Option.get !first);
  metrics

(** Candidate evaluation as direct layer calls: for seeded disable-sets
    of the search base, every suite program and SPEC analog compiles
    through [Toolchain.start/advance/resume] — the base's pipeline
    trunk checkpointed once per program, each candidate resumed from
    its longest shared prefix — then suite binaries are traced and
    scored and SPEC binaries run on the VM. *)
let tune_replay rec_ ctx seed =
  let base = E.search_base in
  let universe = Array.of_list (Debugtuner.Tuning.pass_universe base) in
  let st = rng seed "tune-replay" in
  let candidates =
    List.init 8 (fun _ ->
        let k = 1 + Random.State.int st 3 in
        C.make ~disabled:(List.init k (fun _ -> universe.(Random.State.int st (Array.length universe))))
          base.C.compiler base.C.level)
  in
  let len = T.pipeline_length base in
  let shared c =
    let rec go k = if k < len && T.prefix_fingerprint base (k + 1) = T.prefix_fingerprint c (k + 1) then go (k + 1) else k in
    go 0
  in
  let ck f =
    match rec_ with Some r -> L.checkpointing r f | None -> f Instrument.nop
  in
  let compile_all ast roots =
    let root = ck (fun instrument -> T.start ~instrument ast ~config:base ~roots) in
    let trunk = Hashtbl.create 8 in
    Hashtbl.replace trunk 0 root;
    List.map
      (fun c ->
        let k = shared c in
        let cp =
          match Hashtbl.find_opt trunk k with
          | Some cp -> cp
          | None ->
              let from =
                Hashtbl.fold (fun i cp (bi, bcp) -> if i < k && i > bi then (i, cp) else (bi, bcp)) trunk (0, root)
              in
              let cp = ck (fun instrument -> T.advance ~instrument ~upto:k (snd from) base) in
              Hashtbl.replace trunk k cp;
              cp
        in
        ck (fun instrument -> T.resume ~instrument ~from:cp c))
      candidates
  in
  List.iter
    (fun (p : Ev.prepared) ->
      List.iter
        (fun bin ->
          let tr = L.time_opt rec_ "debugger.trace_s" (fun () -> Ev.trace_config_bin p bin) in
          ignore (L.time_opt rec_ "metrics.score_s" (fun () -> Ev.metrics_of_trace p bin tr)))
        (compile_all p.Ev.ast p.Ev.roots))
    (E.suite ctx);
  List.iter
    (fun (b : Suite_types.sprogram) ->
      let ast = L.time_opt rec_ "minic.parse_s" (fun () -> Suite_types.ast b) in
      List.iter
        (fun bin ->
          let prog = L.time_opt rec_ "vm.decode_s" (fun () -> Vm.Decode.decode bin) in
          List.iter
            (fun (h : Suite_types.harness) ->
              List.iter
                (fun input ->
                  let r =
                    L.time_opt rec_ "vm.run_s" (fun () ->
                        Vm.Fast.run prog bin ~entry:h.Suite_types.h_entry ~args:[] ~input
                          Vm.default_opts)
                  in
                  Option.iter (fun t -> L.add_n t "vm.instrs" r.Vm.instrs) rec_)
                (harness_inputs h))
            b.Suite_types.p_harnesses)
        (compile_all ast (Suite_types.roots b)))
    Spec.all

let tune_traced a =
  let ctx = tune_setup () in
  let before = ME.stats_table (E.engine ctx) in
  let r = search ctx a.seed 0 in
  attempted := !attempted + r.Debugtuner.Tuning.sr_evaluated;
  let rows = ME.stats_delta ~before (ME.stats_table (E.engine ctx)) in
  Printf.printf "digest frontier %s\n" (frontier_digest r);
  let replay rec_ =
    let t0 = now () in
    tune_replay rec_ ctx a.seed;
    now () -. t0
  in
  let plain = replay None in
  let rec_ = L.create () in
  let total = replay (Some rec_) in
  per_layer rec_ (counters_of rows) ~total ~leaves:(batch_leaves rec_)
    ~overhead:((total /. plain) -. 1.0) ~service_ms:0.0 ~wait_ms:0.0 ~executors:0

(* ------------------------------------------------------------------ *)
(* Workload: serve                                                     *)

(* The daemon as --connect users hit it: an in-process Api_server with
   its default executor pool, restarted over a disk store that set-up
   prefilled, driven by 2 closed-loop clients (one connection each). *)

type kind =
  | Hit of int  (** Compile Summary of prefilled pair [i] *)
  | Exec of Suite_types.sprogram * C.t * string * int list
      (** Bench Exec of an entry on an input *)
  | Fresh of Suite_types.sprogram * C.t
      (** Compile Summary under a fresh disable-set *)
  | Stats

let summary p cfg =
  Api.Request.Compile
    {
      c_subject = Api.Request.Named p.Suite_types.p_name;
      c_config = cfg;
      c_profile = None;
      c_sanitize = false;
      c_view = Api.Request.Summary;
    }

(** The prefilled pairs: two standard configurations of every suite
    program, spread over the configurations by the program's position.
    They are the same at every seed, so set-up costs the same at every
    seed; the seed draws the requests. *)
let serve_pairs =
  let configs = Array.of_list E.all_standard_configs in
  let n = Array.length configs in
  Array.of_list
    (List.concat
       (List.mapi
          (fun i p -> [ (p, configs.(i mod n)); (p, configs.((i + (n / 2)) mod n)) ])
          Programs.all))

(** Request [n] of client [i] in daemon round [round]: 85% prefilled
    Summary hits, 8% Bench Exec, 4% fresh disable-set compiles, 3%
    Stats. *)
let serve_request seed ~round (pairs : (Suite_types.sprogram * C.t) array) i n =
  let st = Random.State.make [| seed; round; i; n |] in
  let roll = Random.State.int st 100 in
  if roll < 85 then
    let k = Random.State.int st (Array.length pairs) in
    let p, c = pairs.(k) in
    (summary p c, Hit k)
  else if roll < 93 then begin
    let p, c = pairs.(Random.State.int st (Array.length pairs)) in
    let h = pick st p.Suite_types.p_harnesses in
    let input =
      if Random.State.bool st then pick st (harness_inputs h)
      else List.init (Random.State.int st 6) (fun _ -> Random.State.int st 256)
    in
    let entry = h.Suite_types.h_entry in
    ( Api.Request.Bench
        {
          b_subject = Api.Request.Named p.Suite_types.p_name;
          b_config = c;
          b_action = Api.Request.Exec { x_entry = entry; x_input = input };
        },
      Exec (p, c, entry, input) )
  end
  else if roll < 97 then begin
    let p = pick st Programs.all in
    let c = pick st E.all_standard_configs in
    let passes = T.pass_names c in
    let disabled = List.init (1 + Random.State.int st 3) (fun _ -> pick st passes) in
    let c = C.make ~disabled c.C.compiler c.C.level in
    (summary p c, Fresh (p, c))
  end
  else (Api.Request.Stats { s_what = Api.Request.Counters }, Stats)

(** Prefill a fresh store with every pair's compile; the expected
    Summary text of each pair. *)
let prefill pairs =
  let dir = fresh_dir "serve-store" in
  let ctx = Api.create_ctx ~store:(ME.open_store ~dir ()) () in
  let expected =
    Array.map
      (fun (p, c) ->
        let r = Api.execute ctx (summary p c) in
        if r.Api.Response.status <> Api.Response.Ok then
          fail ("serve: prefill of " ^ p.Suite_types.p_name ^ " failed");
        r.Api.Response.text)
      pairs
  in
  (dir, expected)

type daemon = { server : Api_server.t; accept : Thread.t; sock : string; dir : string }

(** A private copy of the prefilled store at [dir]. *)
let store_copy dir =
  let d = fresh_path "serve-copy" in
  copy_tree dir d;
  d

(** Restart: a new context (empty memo tables) over the store at [dir]. *)
let start_daemon dir =
  let sock = Filename.concat (fresh_dir "sock") "d.sock" in
  let ctx = Api.create_ctx ~store:(ME.open_store ~dir ()) () in
  let server = Api_server.create ~socket:sock ctx in
  { server; accept = Api_server.start server; sock; dir }

let stop_daemon d =
  Api_server.stop d.server;
  Thread.join d.accept

type outcome = {
  o_kind : kind;
  o_latency : float;
  o_rt : float;  (** write + read of the frames *)
  o_failure : string option;  (** what the client found wrong at once *)
  o_line : string;  (** first line of the reply text *)
}

let first_line s = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(** What can be checked as soon as a reply arrives: status, prefilled
    Summary texts, the subject a fresh compile names. Replies are not
    kept, so memory does not grow with the request count. *)
let immediate_check expected kind (r : Api.Response.t) =
  match (r.Api.Response.status, kind) with
  | (Api.Response.Error _ | Api.Response.Overloaded), _ ->
      Some ("not Ok: " ^ r.Api.Response.text)
  | Api.Response.Ok, Hit k when r.Api.Response.text <> expected.(k) ->
      Some "summary differs from prefill"
  | Api.Response.Ok, Fresh (p, c) -> (
      match r.Api.Response.data with
      | Api.Response.D_compiled { dc_program; dc_config; _ }
        when dc_program = p.Suite_types.p_name && dc_config = C.name c ->
          None
      | _ -> Some "fresh compile summary names the wrong subject")
  | Api.Response.Ok, _ -> None

(** Drive the daemon with 2 closed-loop clients until [stop] says so
    (given the elapsed time, requests done, and this client's request
    index); outcomes in request order per client. [rec_] times the
    client-side codec. *)
let drive d seed ~round pairs expected ~rec_ ~stop =
  let done_ = Atomic.make 0 and t0 = now () in
  let client i () =
    let c = Api_client.connect d.sock in
    let fd = c.Api_client.fd in
    let out = ref [] in
    let rec loop n =
      if not (stop (now () -. t0) (Atomic.get done_) n) then begin
        let req, kind = serve_request seed ~round pairs i n in
        let r0 = now () in
        let payload = L.time_opt rec_ "api.codec_s" (fun () -> Api.request_to_json req) in
        let r1 = now () in
        Framing.write_frame fd payload;
        let reply = Framing.read_frame fd in
        let r2 = now () in
        let resp =
          match L.time_opt rec_ "api.codec_s" (fun () -> Api.response_of_json reply) with
          | Ok resp -> resp
          | Error e -> Api_server.protocol_error_response e
        in
        let r3 = now () in
        Option.iter
          (fun t -> L.add_n t "api.frame_bytes" (String.length payload + String.length reply + 8))
          rec_;
        out :=
          { o_kind = kind; o_latency = r3 -. r0; o_rt = r2 -. r1;
            o_failure = immediate_check expected kind resp;
            o_line = first_line resp.Api.Response.text }
          :: !out;
        Atomic.incr done_;
        loop (n + 1)
      end
    in
    loop 0;
    Api_client.close c;
    List.rev !out
  in
  let results = Array.make 2 [] in
  let threads = List.init 2 (fun i -> Thread.create (fun () -> results.(i) <- client i ()) ()) in
  List.iter Thread.join threads;
  (now () -. t0, results.(0) @ results.(1))

(** The remaining checks: every Exec output against the interpreter,
    and two seeded fresh compiles of the run re-checked in full. The
    checker takes one batch of outcomes at a time and returns the
    number of Ok items in it. *)
let serve_checker seed =
  let refs = Hashtbl.create 64 and fresh_checked = ref 0 in
  let st = rng seed "serve-check" in
  fun outcomes ->
  List.fold_left
    (fun ok o ->
      incr attempted;
      match o.o_failure with
      | Some why ->
          fail ("serve: " ^ why);
          ok
      | None ->
          (match o.o_kind with
          | Exec (p, _, entry, input) -> (
              let key = (p.Suite_types.p_name, entry, input) in
              let want =
                match Hashtbl.find_opt refs key with
                | Some w -> w
                | None ->
                    let w = reference (Suite_types.ast p) ~entry ~input in
                    Hashtbl.replace refs key w;
                    w
              in
              match want with
              | None -> ()
              | Some out ->
                  let line =
                    "output: [" ^ String.concat "; " (List.map string_of_int out) ^ "]"
                  in
                  if o.o_line <> line then
                    fail ("serve: exec output differs from the interpreter on "
                          ^ p.Suite_types.p_name))
          | Fresh (p, c) when !fresh_checked < 2 && Random.State.int st 4 = 0 ->
              incr fresh_checked;
              check_outputs "serve fresh compile" p c
          | Fresh _ | Hit _ | Stats -> ());
          ok + 1)
    0 outcomes

let round_requests = 500

(* The measured phase is a series of daemon rounds. Each round
   restarts the daemon over a fresh copy of the prefilled store and
   drives [round_requests] requests per client, with a seeded mix of
   its own; calibration samples bracket every round, taken while no
   daemon runs. The memo tables go with each round's daemon, so memory
   follows the round, not the run — and a run does as many rounds on a
   slow host as on a fast one (see [pieces]), so the peak does not move
   with the host's speed. *)
let serve_e2e cal a =
  (* Set-up: prefill, then start the daemon over a copy of the
     prefilled store (stopped again untimed); the store itself stays as
     prefilled, for the rounds to copy. *)
  let started = ref None in
  let setups, (dir, expected) =
    repeat_setup cal 3 ~discard:ignore
      ~after:(fun () -> Option.iter stop_daemon !started)
      (fun () ->
        let dir, expected = prefill serve_pairs in
        started := Some (start_daemon (store_copy dir));
        (dir, expected))
  in
  let check = serve_checker a.seed in
  let spans = ref [] and items = ref 0 in
  let rounds = pieces a ~per_second:2.7 ~least:2 in
  let round = ref 0 in
  while !round < rounds && not (overrun a (List.map fst !spans)) do
    let d = ref None in
    let (_, outs), sp =
      measure cal
        ~before:(fun () -> d := Some (start_daemon (store_copy dir)))
        ~after:(fun () ->
          Option.iter stop_daemon !d;
          (* The round's daemon is garbage now; collect it before the
             next round allocates, so that round reuses its memory. *)
          Gc.compact ())
        (fun () ->
          drive (Option.get !d) a.seed ~round:!round serve_pairs expected ~rec_:None
            ~stop:(fun _ _ n -> n >= round_requests))
    in
    items := !items + check outs;
    spans := (sp, List.map (fun o -> o.o_latency) outs) :: !spans;
    incr round
  done;
  Printf.printf "%d daemon rounds\n" !round;
  end_to_end ~setups ~spans:(List.rev !spans) ~items:!items

let traced_requests = 500

let serve_traced a =
  let pairs = serve_pairs in
  let dir, expected = prefill pairs in
  let copy () = store_copy dir in
  let fixed = fun _ _ n -> n >= traced_requests in
  (* Untraced, then traced, daemon passes over identical store copies. *)
  let pass rec_ =
    let d = start_daemon (copy ()) in
    let r = drive d a.seed ~round:0 pairs expected ~rec_ ~stop:fixed in
    stop_daemon d;
    r
  in
  (* A first pass warms the process-wide decode cache for both. *)
  ignore (pass None);
  let plain, _ = pass None in
  let rec_ = L.create () in
  L.wrap_store_io rec_;
  let traced, outcomes = pass (Some rec_) in
  L.unwrap_store_io ();
  ignore (serve_checker a.seed outcomes);
  (* Service time: Api.execute on the same requests, in one fixed
     interleaving, on a restarted context over a third copy — which
     also makes the store and memo counts deterministic. *)
  let sctx = Api.create_ctx ~store:(ME.open_store ~dir:(copy ()) ()) () in
  let rows = ref [] and service = ref 0.0 and texts = Buffer.create 4096 in
  for n = 0 to traced_requests - 1 do
    for i = 0 to 1 do
      let req, kind = serve_request a.seed ~round:0 pairs i n in
      let t0 = now () in
      let r = Api.execute sctx req in
      service := !service +. (now () -. t0);
      rows := r.Api.Response.stats @ !rows;
      (* Stats replies reflect whatever ran before them in the process. *)
      if kind <> Stats then Buffer.add_string texts r.Api.Response.text;
      (* Sub-layers of the service time, as direct layer calls. *)
      match kind with
      | Exec (p, c, entry, input) ->
          let bin = T.compile (Suite_types.ast p) ~config:c ~roots:(Suite_types.roots p) in
          let prog = L.time rec_ "vm.decode_s" (fun () -> Vm.Decode.decode bin) in
          let r =
            L.time rec_ "vm.run_s" (fun () ->
                Vm.Fast.run prog bin ~entry ~args:[] ~input Vm.default_opts)
          in
          L.add_n rec_ "vm.instrs" r.Vm.instrs
      | Fresh (p, c) ->
          let ast = L.time rec_ "minic.parse_s" (fun () -> Suite_types.ast p) in
          ignore
            (T.compile ~instrument:(L.instrument rec_) ast ~config:c
               ~roots:(Suite_types.roots p))
      | Hit _ | Stats -> ()
    done
  done;
  Printf.printf "digest responses %s\n" (digest_hex (Buffer.contents texts));
  let requests = float_of_int (List.length outcomes) in
  let lat = sum (List.map (fun o -> o.o_latency) outcomes) in
  let rt = sum (List.map (fun o -> o.o_rt) outcomes) in
  let codec = L.secs rec_ "api.codec_s" in
  let service_ms = 1000.0 *. !service /. requests in
  let wait_ms = (1000.0 *. rt /. requests) -. service_ms in
  Printf.printf "serve: mean service %.3f ms, mean wait %.3f ms over %d requests\n"
    service_ms wait_ms (List.length outcomes);
  per_layer rec_ (counters_of !rows) ~total:lat
    ~leaves:[ ("api.codec_s", codec); ("api_server.service_s", !service); ("api_server.wait_s", rt -. !service) ]
    ~overhead:((traced /. plain) -. 1.0) ~service_ms ~wait_ms
    ~executors:Api_server.default_executors

(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  Unix.mkdir scratch 0o755;
  settle_disk ();
  let metrics =
    Fun.protect
      ~finally:(fun () ->
        rm_rf scratch;
        settle_disk ())
      (fun () ->
        Printf.printf "workload %s, seed %d, %s run, nproc %d\n%!" a.workload a.seed
          (if a.trace then "traced" else "untraced") nproc;
        let cal = Calib.create () in
        match (a.workload, a.trace) with
        | "corpus-eval", false -> corpus_e2e cal a
        | "corpus-eval", true -> corpus_traced a
        | "tune", false -> tune_e2e cal a
        | "tune", true -> tune_traced a
        | "serve", false -> serve_e2e cal a
        | _ -> serve_traced a)
  in
  print_result metrics
