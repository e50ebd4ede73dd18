(* The typed service API: codec round-trips (QCheck), version-stamp and
   unknown-field behaviour, wire-framing torture (partial reads,
   oversized prefixes, mid-message disconnects), and an N-client x
   M-request daemon session asserting responses byte-identical to the
   same requests executed through the in-process (CLI) path. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)

module Config = Debugtuner.Config
module R = Api.Request
module Resp = Api.Response

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let gen_byte_string =
  QCheck.Gen.(string_size (int_bound 12) ~gen:(map Char.chr (int_bound 255)))

let gen_config =
  QCheck.Gen.(
    map3
      (fun comp lvl dis -> Config.make ~disabled:dis comp lvl)
      (oneofl [ Config.Gcc; Config.Clang ])
      (oneofl [ Config.O0; Config.Og; Config.O1; Config.O2; Config.O3 ])
      (list_size (int_bound 3)
         (oneofl [ "mem2reg"; "dce"; "sra"; "inline"; "GVN" ])))

let gen_subject =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> R.Named ("prog-" ^ n)) (string_size (int_bound 6));
        map2
          (fun n src -> R.Inline { in_name = "f-" ^ n; in_source = src })
          (string_size (int_bound 6))
          gen_byte_string;
      ])

let gen_ints = QCheck.Gen.(list_size (int_bound 4) (int_range (-1000) 1000))

let gen_opt_str =
  QCheck.Gen.(opt (map (fun s -> "e" ^ s) (string_size (int_bound 5))))

let gen_view =
  QCheck.Gen.(
    oneof
      [
        return R.Summary;
        return R.Measure;
        map (fun s -> R.Dump s) (list_size (int_bound 3) (oneofl [ "functions"; "lines"; "locs" ]));
        return R.Verify;
        map (fun f -> R.Disasm f) gen_opt_str;
        return R.Dwarf_size;
        return R.Passes;
        return R.Pass_trace;
        map2 (fun e i -> R.Trace { t_entry = e; t_input = i }) gen_opt_str gen_ints;
        map2
          (fun e c -> R.Debug { d_entry = e; d_commands = c })
          gen_opt_str
          (list_size (int_bound 3) gen_byte_string);
        map2
          (fun e p -> R.Sample { s_entry = e; s_period = p })
          gen_opt_str (int_range 1 1000);
        map2
          (fun e i -> R.Value_check { v_entry = e; v_input = i })
          gen_opt_str gen_ints;
      ])

let gen_metric = QCheck.Gen.(map (fun f -> f /. 7.0) (float_bound_inclusive 7.0))

let gen_corpus_row =
  QCheck.Gen.(
    let* idx = int_range 0 9_999 in
    let* fam = oneofl [ "synth"; "fuzz"; "selfcomp" ] in
    let* cfg = oneofl [ "gcc-O2"; "clang-O1"; "gcc-Og"; "clang-O3" ] in
    let* avail = gen_metric in
    let* cov = gen_metric in
    let* product = gen_metric in
    return
      {
        Debugtuner.Experiments.cr_index = idx;
        cr_program = Printf.sprintf "%s-%04d" fam idx;
        cr_family = fam;
        cr_config = cfg;
        cr_avail = avail;
        cr_cov = cov;
        cr_product = product;
      })

let gen_shard =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* i = int_range 1 n in
    return (i, n))

let gen_job =
  QCheck.Gen.(
    let* tables =
      list_size (int_bound 2) (oneofl Api.Job.table_names)
    in
    let* seed = int_range 0 9_999 in
    let* corpus = int_range 1 10_000 in
    let* configs = list_size (int_bound 3) gen_config in
    let* shard = opt gen_shard in
    return
      {
        Api.Job.j_tables = tables;
        j_seed = seed;
        j_corpus = corpus;
        j_configs = configs;
        j_shard = shard;
      })

let gen_partial =
  QCheck.Gen.(
    let* i, n = gen_shard in
    let* seed = int_range 0 9_999 in
    let* corpus = int_range 1 10_000 in
    let* digest = string_size (int_bound 16) in
    let* configs = list_size (int_bound 3) (oneofl [ "gcc-O2"; "clang-O1" ]) in
    let* programs = int_range 0 2_500 in
    let* rows = list_size (int_bound 6) gen_corpus_row in
    return
      {
        Api.Partial.pt_shard = i;
        pt_shards = n;
        pt_seed = seed;
        pt_corpus = corpus;
        pt_digest = digest;
        pt_configs = configs;
        pt_programs = programs;
        pt_rows = rows;
      })

let gen_request =
  QCheck.Gen.(
    oneof
      [
        (let* s = gen_subject in
         let* c = gen_config in
         let* p = opt gen_byte_string in
         let* sz = bool in
         let* v = gen_view in
         return
           (R.Compile
              {
                c_subject = s;
                c_config = c;
                c_profile = p;
                c_sanitize = sz;
                c_view = v;
              }));
        (let* c = gen_config in
         let* k = int_range 0 40 in
         return (R.Rank { r_config = c; r_k = k }));
        (let* c = gen_config in
         let* y = int_range 0 20 in
         return (R.Tune { t_config = c; t_y = y }));
        (let* s = opt gen_subject in
         let* f = int_range 0 100 in
         let* sd = int_range 0 10_000 in
         let* su = bool in
         return (R.Check { k_subject = s; k_fuzz = f; k_seed = sd; k_suite = su }));
        (let* s = gen_subject in
         let* c = gen_config in
         let* sz = bool in
         let* st = bool in
         let* tc = bool in
         return
           (R.Profile
              {
                p_subject = s;
                p_config = c;
                p_sanitize = sz;
                p_stats = st;
                p_trace = tc;
              }));
        (let* s = gen_subject in
         let* c = gen_config in
         let* a =
           oneof
             [
               return R.Cost;
               map2
                 (fun e i -> R.Exec { x_entry = "e" ^ e; x_input = i })
                 (string_size (int_bound 5))
                 gen_ints;
             ]
         in
         return (R.Bench { b_subject = s; b_config = c; b_action = a }));
        (let* a = oneofl [ R.Op_stats; R.Op_clear; R.Op_gc ] in
         let* d = opt gen_byte_string in
         return (R.Cache_op { o_action = a; o_dir = d }));
        (let* w = oneofl [ R.Counters; R.Suite; R.Server ] in
         return (R.Stats { s_what = w }));
        (let* j = gen_job in
         return (R.Experiments { e_job = j }));
        (let* ps = list_size (int_range 1 4) gen_partial in
         return (R.Merge { m_partials = ps }));
      ])

let gen_stats =
  QCheck.Gen.(
    list_size (int_bound 5)
      (map2 (fun n v -> ("c/" ^ n, v)) (string_size (int_bound 6))
         (int_range (-1000) 1_000_000)))

let gen_float = QCheck.Gen.(map (fun f -> f /. 3.0) (float_range (-1e9) 1e9))

let gen_data =
  QCheck.Gen.(
    oneof
      [
        return Resp.D_none;
        (let* i = int_range 0 10_000 in
         let* f = int_range 0 100 in
         let* d = gen_byte_string in
         return
           (Resp.D_compiled
              {
                dc_program = "p";
                dc_config = "gcc-O2";
                dc_instrs = i;
                dc_funcs = f;
                dc_text_digest = d;
              }));
        (let* top =
           list_size (int_bound 4)
             (let* p = string_size (int_bound 8) in
              let* a = gen_float in
              let* b = gen_float in
              return (p, a, b))
         in
         return (Resp.D_ranked { dr_config = "clang-O1"; dr_top = top }));
        (let* d = gen_float in
         let* s = gen_float in
         return
           (Resp.D_tuned
              {
                dt_config = "gcc-O2-d3";
                dt_disabled = [ "dce"; "sra" ];
                dt_debug = d;
                dt_speedup = s;
              }));
        (let* r = int_range 0 500 in
         return
           (Resp.D_checked
              {
                dk_programs = 13;
                dk_configs = 8;
                dk_runs = r;
                dk_skipped = 0;
                dk_failures = r mod 3;
              }));
        map (fun c -> Resp.D_cost c) (int_range 0 1_000_000);
        map (fun rows -> Resp.D_counters rows) gen_stats;
        map (fun p -> Resp.D_partial p) gen_partial;
      ])

let gen_response =
  QCheck.Gen.(
    let* status =
      oneof
        [
          return Resp.Ok;
          map (fun m -> Resp.Error m) gen_byte_string;
          return Resp.Overloaded;
        ]
    in
    let* text = gen_byte_string in
    let* artifact = opt gen_byte_string in
    let* data = gen_data in
    let* stats = gen_stats in
    let* exit_code = int_range 0 125 in
    return { Resp.status; text; artifact; data; stats; exit_code })

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)

let req_arb = QCheck.make ~print:Api.request_to_json gen_request
let resp_arb = QCheck.make ~print:Api.response_to_json gen_response

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"request JSON codec round-trips" ~count:500 req_arb
    (fun r ->
      match Api.request_of_json (Api.request_to_json r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"response JSON codec round-trips" ~count:500 resp_arb
    (fun r ->
      match Api.response_of_json (Api.response_to_json r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let qcheck_unknown_fields_tolerated =
  (* Splice an unrecognized field right after the canonical version
     stamp; decoding must ignore it and yield the same request. *)
  QCheck.Test.make ~name:"decoder tolerates unknown fields" ~count:200 req_arb
    (fun r ->
      let enc = Api.request_to_json r in
      let prefix = "{\"v\":1," in
      assert (String.length enc > String.length prefix);
      assert (String.sub enc 0 (String.length prefix) = prefix);
      let spliced =
        prefix
        ^ "\"x_future_extension\":{\"deep\":[1,2,{\"a\":null}]},"
        ^ String.sub enc (String.length prefix)
            (String.length enc - String.length prefix)
      in
      match Api.request_of_json spliced with
      | Ok r' -> r' = r
      | Error _ -> false)

let qcheck_version_rejected =
  QCheck.Test.make ~name:"decoder rejects foreign version stamps" ~count:100
    req_arb (fun r ->
      let enc = Api.request_to_json r in
      let skip = String.length "{\"v\":1," in
      let bumped =
        "{\"v\":99," ^ String.sub enc skip (String.length enc - skip)
      in
      match Api.request_of_json bumped with
      | Error msg ->
          (* the one-line error names the offending version *)
          let has_sub s sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s
              && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          has_sub msg "version"
      | Ok _ -> false)

let test_version_missing () =
  (match Api.request_of_json "{\"kind\":\"stats\",\"what\":\"suite\"}" with
  | Error msg ->
      checkb "mentions stamp" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "missing version stamp accepted");
  match Api.response_of_json "{\"status\":\"ok\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing version stamp accepted (response)"

let test_malformed_json () =
  List.iter
    (fun text ->
      match Api.request_of_json text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ text))
    [
      ""; "{"; "nope"; "{\"v\":1}"; "{\"v\":1,\"kind\":\"wat\"}";
      "{\"v\":1,\"kind\":\"rank\"}"; "[1,2,3]"; "{\"v\":1} trailing";
    ]

let qcheck_json_string_roundtrip =
  QCheck.Test.make ~name:"Api_json strings round-trip all byte values"
    ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size (int_bound 40) ~gen:(map Char.chr (int_bound 255))))
    (fun s ->
      match Api_json.parse (Api_json.to_string (Api_json.Str s)) with
      | Api_json.Str s' -> s' = s
      | _ -> false)

(* The shard-partial document doubles as a standalone file format
   (--partial-dir), so it gets the same treatment as requests: exact
   round-trips (including the float metrics — the %.17g writer), unknown
   fields tolerated, foreign versions refused. *)
let partial_arb = QCheck.make ~print:Api.partial_to_json gen_partial

let qcheck_partial_roundtrip =
  QCheck.Test.make ~name:"shard partial codec round-trips" ~count:500
    partial_arb (fun p ->
      match Api.partial_of_json (Api.partial_to_json p) with
      | Ok p' -> p' = p
      | Error _ -> false)

let qcheck_partial_unknown_fields =
  QCheck.Test.make ~name:"partial decoder tolerates unknown fields" ~count:200
    partial_arb (fun p ->
      let enc = Api.partial_to_json p in
      let prefix = "{\"v\":1," in
      assert (String.sub enc 0 (String.length prefix) = prefix);
      let spliced =
        prefix
        ^ "\"x_extra\":[{\"nested\":true}],"
        ^ String.sub enc (String.length prefix)
            (String.length enc - String.length prefix)
      in
      match Api.partial_of_json spliced with
      | Ok p' -> p' = p
      | Error _ -> false)

let qcheck_partial_version_rejected =
  QCheck.Test.make ~name:"partial decoder rejects foreign versions" ~count:100
    partial_arb (fun p ->
      let enc = Api.partial_to_json p in
      let skip = String.length "{\"v\":1," in
      let bumped =
        "{\"v\":42," ^ String.sub enc skip (String.length enc - skip)
      in
      match Api.partial_of_json bumped with
      | Error _ -> true
      | Ok _ -> false)

let test_partial_invalid_shard () =
  (* a shard index beyond the count must be refused at decode time *)
  let bad =
    "{\"v\":1,\"shard\":3,\"shards\":2,\"seed\":1,\"corpus\":4,\"digest\":\"d\",\
     \"configs\":[\"gcc-O2\"],\"programs\":0,\"rows\":[]}"
  in
  match Api.partial_of_json bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range shard index accepted"

(* ------------------------------------------------------------------ *)
(* Golden wire fixture                                                 *)

(* golden_wire.txt pins the canonical bytes of one hand-built value per
   wire shape — every request kind, view, bench action, cache op and
   stats selector; every response status and data variant; a partial
   with non-integral floats; a search frontier artifact — plus the
   one-line decode error of a fixed list of malformed documents. Each
   line is "<group> <label> <payload>". A reordered field, a renamed
   tag or a reworded error fails here; on mismatch the test writes the
   actual lines to golden_wire.actual in its working directory. *)

let wire_samples () =
  let cfg = Config.make Config.Gcc Config.O2 in
  let cfg_d = Config.make ~disabled:[ "inline"; "dce" ] Config.Clang Config.Og in
  let inline = R.Inline { in_name = "t.c"; in_source = "int main() {\n\treturn \"\\\"; }" } in
  let req label r =
    ("req " ^ label, Api.request_to_json r, fun s -> Api.request_of_json s = Ok r)
  in
  let compile ?(subject = R.Named "zlib") ?profile ?(sanitize = false) label view =
    req ("compile-" ^ label)
      (R.Compile
         { c_subject = subject; c_config = cfg; c_profile = profile;
           c_sanitize = sanitize; c_view = view })
  in
  let row i cfg avail =
    { Debugtuner.Experiments.cr_index = i; cr_program = Printf.sprintf "synth-%04d" i;
      cr_family = "synth"; cr_config = cfg; cr_avail = avail;
      cr_cov = avail /. 3.0; cr_product = avail *. avail /. 3.0 }
  in
  let partial =
    { Api.Partial.pt_shard = 2; pt_shards = 3; pt_seed = 7; pt_corpus = 12;
      pt_digest = "0123abcd"; pt_configs = [ "gcc-O2"; "clang-Og-d2" ];
      pt_programs = 4;
      pt_rows = [ row 4 "gcc-O2" 0.1; row 5 "clang-Og-d2" (2.0 /. 7.0); row 6 "gcc-O2" 1.0 ] }
  in
  let resp label status data =
    let r =
      { Resp.status; text = "line one\nline \"two\"\n"; artifact = Some "{\"x\":1}";
        data; stats = [ ("engine/compile/hits", 3); ("store/compile/misses", 0) ];
        exit_code = (if status = Resp.Ok then 0 else 1) }
    in
    ("resp " ^ label, Api.response_to_json r, fun s -> Api.response_of_json s = Ok r)
  in
  let error label decode doc =
    ( "error " ^ label,
      (match decode doc with Ok _ -> "accepted" | Error msg -> msg),
      fun _ -> true )
  in
  let req_error label doc = error label Api.request_of_json doc in
  let frontier =
    let point disabled debug speedup =
      { Debugtuner.Tuning.fp_config = Config.make ~disabled Config.Gcc Config.O2;
        fp_debug = debug; fp_speedup = speedup }
    in
    { Debugtuner.Tuning.sr_base = cfg; sr_strategy = Debugtuner.Tuning.Hill_climb;
      sr_seed = 11; sr_budget = 8; sr_evaluated = 8; sr_resumed = 3;
      sr_frontier = [ point [] 0.25 1.5; point [ "dce"; "gcse" ] (1.0 /. 3.0) 1.125 ];
      sr_dominated = 6 }
  in
  let job shard =
    { Api.Job.j_tables = [ "summary" ]; j_seed = 7; j_corpus = 12;
      j_configs = [ cfg; cfg_d ]; j_shard = shard }
  in
  [
    compile "summary" R.Summary;
    compile ~subject:inline ~profile:"main 10\n" ~sanitize:true "measure" R.Measure;
    compile "dump" (R.Dump [ "functions"; "lines" ]);
    compile "verify" R.Verify;
    compile "disasm" (R.Disasm (Some "main"));
    compile "disasm-all" (R.Disasm None);
    compile "dwarf-size" R.Dwarf_size;
    compile "passes" R.Passes;
    compile "pass-trace" R.Pass_trace;
    compile "trace" (R.Trace { t_entry = Some "fuzz"; t_input = [ 1; -2; 3 ] });
    compile "debug" (R.Debug { d_entry = None; d_commands = [ "break 3"; "run" ] });
    compile "sample" (R.Sample { s_entry = Some "main"; s_period = 97 });
    compile "value-check" (R.Value_check { v_entry = None; v_input = [] });
    req "rank" (R.Rank { r_config = cfg_d; r_k = 5 });
    req "tune" (R.Tune { t_config = cfg; t_y = 3 });
    req "search"
      (R.Search
         { se_config = cfg; se_strategy = Debugtuner.Tuning.Bandit; se_budget = 48;
           se_seed = 9; se_debug_weight = 0.75; se_speed_weight = 1.0 /. 3.0 });
    req "check-suite" (R.Check { k_subject = None; k_fuzz = 4; k_seed = 2; k_suite = true });
    req "check-subject"
      (R.Check { k_subject = Some inline; k_fuzz = 0; k_seed = 1; k_suite = false });
    req "profile"
      (R.Profile
         { p_subject = R.Named "libpng"; p_config = cfg; p_sanitize = false;
           p_stats = true; p_trace = true });
    req "bench-cost" (R.Bench { b_subject = R.Named "zlib"; b_config = cfg; b_action = R.Cost });
    req "bench-exec"
      (R.Bench
         { b_subject = inline; b_config = cfg_d;
           b_action = R.Exec { x_entry = "main"; x_input = [ 4; 5 ] } });
    req "cache-stats" (R.Cache_op { o_action = R.Op_stats; o_dir = None });
    req "cache-clear" (R.Cache_op { o_action = R.Op_clear; o_dir = Some "_cache/alt" });
    req "cache-gc" (R.Cache_op { o_action = R.Op_gc; o_dir = None });
    req "stats-counters" (R.Stats { s_what = R.Counters });
    req "stats-suite" (R.Stats { s_what = R.Suite });
    req "stats-server" (R.Stats { s_what = R.Server });
    req "experiments" (R.Experiments { e_job = job None });
    req "experiments-shard" (R.Experiments { e_job = job (Some (2, 3)) });
    req "merge" (R.Merge { m_partials = [ partial ] });
    resp "none" Resp.Ok Resp.D_none;
    resp "error" (Resp.Error "no such program \"x\"") Resp.D_none;
    resp "overloaded" Resp.Overloaded Resp.D_none;
    resp "compiled" Resp.Ok
      (Resp.D_compiled
         { dc_program = "zlib"; dc_config = "gcc-O2"; dc_instrs = 1234; dc_funcs = 9;
           dc_text_digest = "deadbeef" });
    resp "ranked" Resp.Ok
      (Resp.D_ranked { dr_config = "gcc-O1"; dr_top = [ ("dce", 1.5, 2.0); ("sra", 0.1, 1.0 /. 3.0) ] });
    resp "tuned" Resp.Ok
      (Resp.D_tuned
         { dt_config = "gcc-O2-d2"; dt_disabled = [ "dce"; "sra" ]; dt_debug = 0.625;
           dt_speedup = 1.0 /. 7.0 });
    resp "frontier" Resp.Ok
      (Resp.D_frontier
         { df_config = "gcc-O2"; df_strategy = "random"; df_seed = 1; df_budget = 16;
           df_evaluated = 16; df_dominated = 12;
           df_front = [ ("gcc-O2", 0.5, 1.0); ("gcc-O2-d1", 0.6, 0.95) ] });
    resp "checked" Resp.Ok
      (Resp.D_checked
         { dk_programs = 13; dk_configs = 8; dk_runs = 104; dk_skipped = 2; dk_failures = 1 });
    resp "cost" Resp.Ok (Resp.D_cost 4242);
    resp "counters" Resp.Ok (Resp.D_counters [ ("a/b", 1); ("c", -2) ]);
    resp "partial" Resp.Ok (Resp.D_partial partial);
    ( "partial floats",
      Api.partial_to_json partial,
      fun s -> Api.partial_of_json s = Ok partial );
    ("frontier search", Api.frontier_json ~config:cfg frontier, fun _ -> true);
    req_error "malformed" "{\"v\":1,";
    req_error "missing-v" "{\"kind\":\"stats\",\"what\":\"suite\"}";
    req_error "foreign-v" "{\"v\":2,\"kind\":\"stats\",\"what\":\"suite\"}";
    req_error "unknown-kind" "{\"v\":1,\"kind\":\"wat\"}";
    req_error "missing-field"
      "{\"v\":1,\"kind\":\"rank\",\"config\":{\"compiler\":\"gcc\",\"level\":\"O2\",\"disabled\":[]}}";
    req_error "unknown-compiler"
      "{\"v\":1,\"kind\":\"rank\",\"config\":{\"compiler\":\"icc\",\"level\":\"O2\",\"disabled\":[]},\"k\":3}";
    req_error "unknown-level"
      "{\"v\":1,\"kind\":\"tune\",\"config\":{\"compiler\":\"gcc\",\"level\":\"O9\",\"disabled\":[]},\"y\":3}";
    req_error "unknown-view"
      "{\"v\":1,\"kind\":\"compile\",\"subject\":{\"name\":\"zlib\"},\"config\":{\"compiler\":\"gcc\",\"level\":\"O2\",\"disabled\":[]},\"profile\":null,\"sanitize\":false,\"view\":{\"kind\":\"wat\"}}";
    req_error "unknown-action"
      "{\"v\":1,\"kind\":\"bench\",\"subject\":{\"name\":\"zlib\"},\"config\":{\"compiler\":\"gcc\",\"level\":\"O2\",\"disabled\":[]},\"action\":{\"kind\":\"wat\"}}";
    req_error "unknown-strategy"
      "{\"v\":1,\"kind\":\"search\",\"config\":{\"compiler\":\"gcc\",\"level\":\"O2\",\"disabled\":[]},\"strategy\":\"wat\",\"budget\":8,\"seed\":1,\"debug_weight\":1,\"speed_weight\":1}";
    req_error "unknown-op" "{\"v\":1,\"kind\":\"cache\",\"op\":\"wat\",\"dir\":null}";
    req_error "unknown-selector" "{\"v\":1,\"kind\":\"stats\",\"what\":\"wat\"}";
    req_error "bad-shard"
      "{\"v\":1,\"kind\":\"experiments\",\"job\":{\"tables\":[],\"seed\":1,\"corpus\":4,\"configs\":[],\"shard\":{\"index\":3,\"count\":2}}}";
    error "bad-partial-shard" Api.partial_of_json
      "{\"v\":1,\"shard\":3,\"shards\":2,\"seed\":1,\"corpus\":4,\"digest\":\"d\",\"configs\":[],\"programs\":0,\"rows\":[]}";
    error "unknown-data" Api.response_of_json
      "{\"v\":1,\"status\":\"ok\",\"exit\":0,\"text\":\"\",\"artifact\":null,\"data\":{\"kind\":\"wat\"},\"stats\":[]}";
    error "bad-status" Api.response_of_json
      "{\"v\":1,\"status\":\"maybe\",\"exit\":0,\"text\":\"\",\"artifact\":null,\"data\":{\"kind\":\"none\"},\"stats\":[]}";
  ]

let test_golden_wire () =
  let samples = wire_samples () in
  let actual = List.map (fun (label, bytes, _) -> label ^ " " ^ bytes) samples in
  let expected =
    In_channel.with_open_bin "golden_wire.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if actual <> expected then begin
    Out_channel.with_open_bin "golden_wire.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    Alcotest.(check (list string)) "wire bytes match golden_wire.txt" expected actual
  end;
  List.iter2
    (fun (label, _, decodes) line ->
      let n = String.length label + 1 in
      checkb (label ^ " decodes back") true
        (decodes (String.sub line n (String.length line - n))))
    samples expected

(* ------------------------------------------------------------------ *)
(* Framing torture                                                     *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_framing_roundtrip () =
  with_socketpair (fun a b ->
      List.iter
        (fun payload ->
          Framing.write_frame a payload;
          check Alcotest.string "frame round-trips" payload (Framing.read_frame b))
        [ ""; "x"; String.make 70_000 '\xAB'; "{\"v\":1}"; String.init 256 Char.chr ])

let test_framing_partial_reads () =
  (* Feed a frame one byte at a time from a writer thread: the reader
     must reassemble it regardless of how the bytes trickle in. *)
  with_socketpair (fun a b ->
      let payload = String.init 1500 (fun i -> Char.chr (i mod 256)) in
      let n = String.length payload in
      let wire =
        Bytes.cat (Framing.encode_length n) (Bytes.of_string payload)
      in
      let writer =
        Thread.create
          (fun () ->
            Bytes.iter
              (fun c ->
                ignore (Unix.write a (Bytes.make 1 c) 0 1);
                if Char.code c mod 100 = 0 then Thread.yield ())
              wire)
          ()
      in
      let got = Framing.read_frame b in
      Thread.join writer;
      check Alcotest.string "reassembled" payload got)

let test_framing_oversized_prefix () =
  with_socketpair (fun a b ->
      let huge = Framing.encode_length (Framing.max_frame + 1) in
      ignore (Unix.write a huge 0 4);
      match Framing.read_frame b with
      | _ -> Alcotest.fail "oversized prefix accepted"
      | exception Framing.Oversized n ->
          check Alcotest.int "reported size" (Framing.max_frame + 1) n);
  (* and writing one is refused outright *)
  with_socketpair (fun a _ ->
      match Framing.write_frame a (String.make (Framing.max_frame + 1) ' ') with
      | _ -> Alcotest.fail "oversized write accepted"
      | exception Framing.Oversized _ -> ())

let test_framing_mid_message_disconnect () =
  with_socketpair (fun a b ->
      ignore (Unix.write a (Framing.encode_length 100) 0 4);
      ignore (Unix.write a (Bytes.make 10 'x') 0 10);
      Unix.close a;
      match Framing.read_frame b with
      | _ -> Alcotest.fail "truncated frame accepted"
      | exception Framing.Closed -> ());
  (* header itself truncated *)
  with_socketpair (fun a b ->
      ignore (Unix.write a (Bytes.make 2 '\000') 0 2);
      Unix.close a;
      match Framing.read_frame b with
      | _ -> Alcotest.fail "truncated header accepted"
      | exception Framing.Closed -> ())

let test_framing_clean_eof () =
  with_socketpair (fun a b ->
      Framing.write_frame a "last";
      Unix.close a;
      checkb "first frame" true (Framing.read_frame_opt b = Some "last");
      checkb "then clean EOF" true (Framing.read_frame_opt b = None))

(* ------------------------------------------------------------------ *)
(* Execute semantics                                                   *)

let test_execute_error_response () =
  let ctx = Api.create_ctx () in
  let resp =
    Api.execute ctx
      (R.Compile
         {
           c_subject = R.Named "no-such-program";
           c_config = Config.make Config.Gcc Config.O1;
           c_profile = None;
           c_sanitize = false;
           c_view = R.Summary;
         })
  in
  (match resp.Resp.status with
  | Resp.Error msg ->
      check Alcotest.string "one-line message" "unknown program no-such-program"
        msg
  | _ -> Alcotest.fail "expected an error response");
  check Alcotest.int "exit code" 2 resp.Resp.exit_code;
  (* the context stays usable after a failed request *)
  let ok = Api.execute ctx (R.Stats { s_what = R.Suite }) in
  checkb "recovers" true (ok.Resp.status = Resp.Ok)

let test_execute_stats_delta () =
  (* Two identical compile requests on one context: the first pays the
     misses, the second's delta must report hits, not re-count the
     first request's work. *)
  let ctx = Api.create_ctx () in
  let req =
    R.Bench
      {
        b_subject = R.Named "zlib";
        b_config = Config.make Config.Gcc Config.O1;
        b_action = R.Cost;
      }
  in
  let r1 = Api.execute ctx req in
  let r2 = Api.execute ctx req in
  checkb "first ok" true (r1.Resp.status = Resp.Ok);
  check Alcotest.string "same text" r1.Resp.text r2.Resp.text;
  let v name rows = Option.value ~default:0 (List.assoc_opt name rows) in
  checkb "first request misses" true
    (v "engine/bench-cost/misses" r1.Resp.stats >= 1);
  check Alcotest.int "second request pays no miss" 0
    (v "engine/bench-cost/misses" r2.Resp.stats);
  checkb "second request hits" true
    (v "engine/bench-cost/hits" r2.Resp.stats >= 1)

(* ------------------------------------------------------------------ *)
(* Daemon: N clients x M requests, byte-identical to the CLI path      *)

let tmp_socket tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dt-%s-%d.sock" tag (Unix.getpid ()))

let identity_requests =
  let cfg = Config.make Config.Gcc Config.Og in
  [
    R.Stats { s_what = R.Suite };
    R.Compile
      {
        c_subject = R.Named "zlib";
        c_config = cfg;
        c_profile = None;
        c_sanitize = false;
        c_view = R.Passes;
      };
    R.Compile
      {
        c_subject = R.Named "zlib";
        c_config = cfg;
        c_profile = None;
        c_sanitize = false;
        c_view = R.Summary;
      };
    R.Bench
      {
        b_subject = R.Named "zlib";
        b_config = cfg;
        b_action = R.Exec { x_entry = "fuzz_deflate"; x_input = [ 1; 2; 3 ] };
      };
    R.Compile
      {
        c_subject = R.Named "bzip2";
        c_config = cfg;
        c_profile = None;
        c_sanitize = false;
        c_view = R.Verify;
      };
  ]

let test_daemon_byte_identity () =
  (* Expected bytes: each request through a fresh in-process context —
     exactly what the CLI does without --connect. *)
  let expected =
    List.map
      (fun req ->
        let resp = Api.execute (Api.create_ctx ()) req in
        checkb "cli path ok" true (resp.Resp.status = Resp.Ok);
        resp.Resp.text)
      identity_requests
  in
  let socket = tmp_socket "ident" in
  let server = Api_server.create ~queue_limit:16 ~socket (Api.create_ctx ()) in
  let accept_thread = Api_server.start server in
  let n_clients = 4 in
  let rounds = 3 in
  let results =
    Array.init n_clients (fun _ ->
        Array.make (rounds * List.length identity_requests) "")
  in
  let client i () =
    let c = Api_client.connect ~timeout:60.0 socket in
    let slot = ref 0 in
    for _ = 1 to rounds do
      List.iter
        (fun req ->
          (match Api_client.rpc c req with
          | Ok resp ->
              checkb "daemon ok" true (resp.Resp.status = Resp.Ok);
              results.(i).(!slot) <- resp.Resp.text
          | Error msg -> Alcotest.fail ("rpc failed: " ^ msg));
          incr slot)
        identity_requests
    done;
    Api_client.close c
  in
  let threads =
    List.init n_clients (fun i -> Thread.create (client i) ())
  in
  List.iter Thread.join threads;
  Api_server.stop server;
  Thread.join accept_thread;
  let per_round = List.length identity_requests in
  Array.iteri
    (fun i per_client ->
      Array.iteri
        (fun slot got ->
          let want = List.nth expected (slot mod per_round) in
          check Alcotest.string
            (Printf.sprintf "client %d slot %d matches CLI path" i slot)
            want got)
        per_client)
    results

let test_execute_concurrent_counters () =
  (* Per-request attribution under real parallelism: N domains hammer
     one shared context with disjoint (program, config) pairs, and each
     response's counters (and text) must be byte-equal to the same
     request executed alone on a fresh context — no bleed from whatever
     ran alongside. Disjoint pairs are essential: concurrent duplicate
     keys legitimately flip miss/dedup/hit by arrival order. *)
  let reqs =
    List.map
      (fun (name, level) ->
        R.Compile
          {
            c_subject = R.Named name;
            c_config = Config.make Config.Gcc level;
            c_profile = None;
            c_sanitize = false;
            c_view = R.Summary;
          })
      [
        ("zlib", Config.O1);
        ("bzip2", Config.O2);
        ("libexif", Config.O1);
        ("liblouis", Config.O2);
      ]
  in
  let serialized =
    List.map
      (fun req ->
        let resp = Api.execute (Api.create_ctx ()) req in
        checkb "serialized ok" true (resp.Resp.status = Resp.Ok);
        resp)
      reqs
  in
  let ctx = Api.create_ctx () in
  let doms =
    List.map (fun req -> Domain.spawn (fun () -> Api.execute ctx req)) reqs
  in
  let concurrent = List.map Domain.join doms in
  List.iteri
    (fun i (want, got) ->
      checkb
        (Printf.sprintf "request %d concurrent ok" i)
        true
        (got.Resp.status = Resp.Ok);
      check Alcotest.string
        (Printf.sprintf "request %d text matches serialized run" i)
        want.Resp.text got.Resp.text;
      check
        Alcotest.(list (pair string int))
        (Printf.sprintf "request %d counters match serialized run" i)
        want.Resp.stats got.Resp.stats)
    (List.combine serialized concurrent)

let test_daemon_tcp_identity () =
  (* The TCP transport speaks the identical framing: responses over
     --listen/--connect HOST:PORT are byte-equal to the Unix-socket
     path against the same warm daemon. *)
  let socket = tmp_socket "tcp" in
  let server =
    Api_server.create ~listen:"localhost:0" ~socket (Api.create_ctx ())
  in
  let accept_thread = Api_server.start server in
  let host, port =
    match Api_server.listen_addr server with
    | Some hp -> hp
    | None -> Alcotest.fail "no TCP listener bound"
  in
  checkb "ephemeral port bound" true (port > 0);
  let endpoint = Printf.sprintf "%s:%d" host port in
  List.iter
    (fun req ->
      match
        ( Api_client.oneshot ~timeout:60.0 socket req,
          Api_client.oneshot ~timeout:60.0 endpoint req )
      with
      | Ok a, Ok b ->
          checkb "unix ok" true (a.Resp.status = Resp.Ok);
          checkb "tcp ok" true (b.Resp.status = Resp.Ok);
          check Alcotest.string "tcp text matches unix text" a.Resp.text
            b.Resp.text
      | Error msg, _ -> Alcotest.fail ("unix rpc failed: " ^ msg)
      | _, Error msg -> Alcotest.fail ("tcp rpc failed: " ^ msg))
    identity_requests;
  Api_server.stop server;
  Thread.join accept_thread

let test_daemon_overloaded () =
  (* Deterministic backpressure: park the execute gate so the first
     admitted request holds its slot inside execute, then a second
     concurrent request must be refused with Overloaded immediately —
     not queued, not hung. *)
  let ctx = Api.create_ctx () in
  let socket = tmp_socket "load" in
  let server = Api_server.create ~queue_limit:1 ~socket ctx in
  let accept_thread = Api_server.start server in
  let gate = Mutex.create () in
  Mutex.lock gate;
  Api.execute_gate :=
    (fun () ->
      Mutex.lock gate;
      Mutex.unlock gate);
  let slow_result = ref None in
  let slow =
    Thread.create
      (fun () ->
        slow_result := Some (Api_client.oneshot socket (R.Stats { s_what = R.Suite })))
      ()
  in
  (* wait until the slow request is admitted (in_flight = 1) *)
  let rec wait_admitted n =
    let in_flight =
      Option.value ~default:0
        (List.assoc_opt "serve/in_flight" (Api_server.counters server))
    in
    if in_flight < 1 then begin
      if n > 2000 then Alcotest.fail "request never admitted";
      Thread.yield ();
      Unix.sleepf 0.005;
      wait_admitted (n + 1)
    end
  in
  wait_admitted 0;
  (match Api_client.oneshot ~timeout:30.0 socket (R.Stats { s_what = R.Suite }) with
  | Ok resp ->
      checkb "refused with overloaded" true (resp.Resp.status = Resp.Overloaded);
      checkb "non-zero exit" true (resp.Resp.exit_code <> 0)
  | Error msg -> Alcotest.fail ("overload probe failed: " ^ msg));
  Mutex.unlock gate;
  Thread.join slow;
  Api.execute_gate := (fun () -> ());
  (match !slow_result with
  | Some (Ok resp) -> checkb "parked request completes" true (resp.Resp.status = Resp.Ok)
  | _ -> Alcotest.fail "parked request lost");
  Api_server.stop server;
  Thread.join accept_thread

let test_daemon_protocol_error () =
  (* A frame that is not a valid request must produce an error
     response, and the session must survive for the next frame. *)
  let socket = tmp_socket "proto" in
  let server = Api_server.create ~socket (Api.create_ctx ()) in
  let accept_thread = Api_server.start server in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Framing.write_frame fd "this is not json";
  (match Api.response_of_json (Framing.read_frame fd) with
  | Ok resp -> checkb "error status" true
      (match resp.Resp.status with Resp.Error _ -> true | _ -> false)
  | Error msg -> Alcotest.fail ("bad error response: " ^ msg));
  Framing.write_frame fd
    (Api.request_to_json (R.Stats { s_what = R.Suite }));
  (match Api.response_of_json (Framing.read_frame fd) with
  | Ok resp -> checkb "session survives" true (resp.Resp.status = Resp.Ok)
  | Error msg -> Alcotest.fail ("bad follow-up response: " ^ msg));
  Unix.close fd;
  Api_server.stop server;
  Thread.join accept_thread

let tests =
  [
    Alcotest.test_case "version stamp required" `Quick test_version_missing;
    Alcotest.test_case "malformed JSON rejected" `Quick test_malformed_json;
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_unknown_fields_tolerated;
    QCheck_alcotest.to_alcotest qcheck_version_rejected;
    QCheck_alcotest.to_alcotest qcheck_json_string_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_partial_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_partial_unknown_fields;
    QCheck_alcotest.to_alcotest qcheck_partial_version_rejected;
    Alcotest.test_case "partial decoder rejects bad shard arithmetic" `Quick
      test_partial_invalid_shard;
    Alcotest.test_case "golden wire fixture" `Quick test_golden_wire;
    Alcotest.test_case "framing round-trip" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing partial reads" `Quick test_framing_partial_reads;
    Alcotest.test_case "framing oversized prefix" `Quick
      test_framing_oversized_prefix;
    Alcotest.test_case "framing mid-message disconnect" `Quick
      test_framing_mid_message_disconnect;
    Alcotest.test_case "framing clean EOF" `Quick test_framing_clean_eof;
    Alcotest.test_case "execute turns failures into error responses" `Quick
      test_execute_error_response;
    Alcotest.test_case "per-request counter deltas" `Quick
      test_execute_stats_delta;
    Alcotest.test_case "concurrent executes keep per-request counters" `Quick
      test_execute_concurrent_counters;
    Alcotest.test_case "daemon byte-identical to CLI path (4x3x5)" `Quick
      test_daemon_byte_identity;
    Alcotest.test_case "daemon TCP transport byte-identical to unix" `Quick
      test_daemon_tcp_identity;
    Alcotest.test_case "daemon backpressure: overloaded, not hung" `Quick
      test_daemon_overloaded;
    Alcotest.test_case "daemon survives protocol garbage" `Quick
      test_daemon_protocol_error;
  ]
