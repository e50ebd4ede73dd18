(* Child-process side of the counter-fixture test (test_counters.ml): a
   fixed serial workload on a fresh context (one worker, a fresh disk
   store), printing every response's [stats] rows and then the
   context's whole [stats_table]. A separate process, so the
   process-global counters and decode cache start from zero no matter
   which tests ran before.

   Usage: counters_golden.exe STORE-DIR *)

module Config = Debugtuner.Config
module R = Api.Request

let () =
  let dir =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
        prerr_endline "usage: counters_golden.exe STORE-DIR";
        exit 2
  in
  let store = Debugtuner.Measure_engine.open_store ~dir () in
  let ctx = Api.create_ctx ~workers:1 ~store () in
  let check =
    R.Check
      { k_subject = Some (R.Named "zlib"); k_fuzz = 0; k_seed = 1; k_suite = false }
  in
  let workload =
    [
      ("rank", R.Rank { r_config = Config.make Config.Gcc Config.O1; r_k = 10 });
      ("check-cold", check);
      ("check-warm", check);
      ( "search",
        R.Search
          {
            se_config = Config.make Config.Gcc Config.O1;
            se_strategy = Debugtuner.Tuning.Hill_climb;
            se_budget = 8;
            se_seed = 1;
            se_debug_weight = 1.0;
            se_speed_weight = 1.0;
          } );
    ]
  in
  let print_rows label rows =
    Printf.printf "== %s\n" label;
    List.iter (fun (n, v) -> Printf.printf "%s %d\n" n v) rows
  in
  List.iter
    (fun (label, req) ->
      let resp = Api.execute ctx req in
      if resp.Api.Response.status <> Api.Response.Ok then begin
        Printf.eprintf "%s failed\n" label;
        exit 1
      end;
      print_rows label resp.Api.Response.stats)
    workload;
  print_rows "stats_table"
    (Debugtuner.Measure_engine.stats_table ctx.Api.engine)
