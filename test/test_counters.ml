(* Util.Counters, the one counter substrate: scopes nest and fold into
   their parent, engine pool workers inherit the caller's scope,
   concurrent scopes on distinct domains and systhreads never see each
   other's work, and the counters that used to be read by global
   before/after snapshots (the search's [suffix_shared], the oracle
   cache's persisted sanitizer delta) now ignore concurrent activity.
   Also pins every stats row of a fixed serial workload against
   golden_counters.txt. *)

module Counters = Util.Counters
module C = Debugtuner.Config
module T = Debugtuner.Toolchain
module ME = Debugtuner.Measure_engine
module Ev = Debugtuner.Evaluation
module Tu = Debugtuner.Tuning

let rows = Alcotest.(list (pair string int))

let test_nested_scope_folds () =
  let t = Counters.create () in
  let outer = Counters.create () and inner = Counters.create () in
  Counters.with_scope outer (fun () ->
      Counters.add t "a" 1;
      Counters.with_scope inner (fun () ->
          Counters.add t "a" 2;
          Counters.add t "b" 5);
      Alcotest.check rows "inner scope" [ ("a", 2); ("b", 5) ]
        (Counters.rows inner);
      Alcotest.check rows "inner rows folded into outer" [ ("a", 3); ("b", 5) ]
        (Counters.rows outer);
      (* An exception still restores (and folds) the scope. *)
      (try
         Counters.with_scope (Counters.create ()) (fun () ->
             Counters.add t "c" 1;
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "outer restored" true
        (match Counters.current () with Some s -> s == outer | None -> false));
  Alcotest.check rows "table" [ ("a", 3); ("b", 5); ("c", 1) ] (Counters.rows t);
  Alcotest.check rows "outer after raise" [ ("a", 3); ("b", 5); ("c", 1) ]
    (Counters.rows outer);
  Alcotest.(check bool) "no scope outside" true (Counters.current () = None);
  Counters.reset t ~prefix:"a";
  Alcotest.check rows "reset by prefix" [ ("b", 5); ("c", 1) ] (Counters.rows t)

let test_pool_inherits_scope () =
  let pool = Engine.Pool.create ~workers:2 () in
  let t = Counters.create () and scope = Counters.create () in
  Counters.with_scope scope (fun () ->
      ignore
        (Engine.Pool.map pool
           (fun i -> Counters.add t "w" i)
           (List.init 8 (fun i -> i + 1))
          : unit list));
  Alcotest.check rows "workers counted into the caller's scope" [ ("w", 36) ]
    (Counters.rows scope);
  Alcotest.(check (list bool)) "no scope outside one" [ true; true ]
    (Engine.Pool.map pool (fun () -> Counters.current () = None) [ (); () ])

let test_concurrent_scopes () =
  let t = Counters.create () in
  let work i () =
    let scope = Counters.create () in
    Counters.with_scope scope (fun () ->
        for _ = 1 to 200 do
          Counters.add t "shared" 1;
          Counters.add t (Printf.sprintf "own/%d" i) i;
          Thread.yield ()
        done);
    Counters.rows scope
  in
  let doms = List.init 2 (fun i -> Domain.spawn (work (i + 1))) in
  let from_threads = Array.make 2 [] in
  let threads =
    List.init 2 (fun j ->
        Thread.create (fun () -> from_threads.(j) <- work (j + 3) ()) ())
  in
  let from_domains = List.map Domain.join doms in
  List.iter Thread.join threads;
  List.iteri
    (fun i got ->
      Alcotest.check rows
        (Printf.sprintf "scope %d sees only its own work" (i + 1))
        [ (Printf.sprintf "own/%d" (i + 1), 200 * (i + 1)); ("shared", 200) ]
        got)
    (from_domains @ Array.to_list from_threads);
  Alcotest.(check int) "the table sees everything" 800 (Counters.get t "shared")

(* Background activity for the isolation tests: [f] runs in a loop on
   another domain until [body] returns. *)
let alongside f body =
  let stop = Atomic.make false in
  let noise =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          f ()
        done)
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join noise)
    body

let sprog seed name =
  {
    Suite_types.p_name = name;
    p_source = Synth.generate ~seed;
    p_harnesses =
      [ { Suite_types.h_name = "main"; h_entry = "main"; h_seeds = [] } ];
  }

let test_suffix_shared_isolated () =
  let benches = [ sprog 3 "ctr-a"; sprog 5 "ctr-b" ] in
  let suite = List.map Ev.prepare benches in
  let search () =
    let engine = ME.create () in
    let o0_costs = Tu.o0_costs ~engine benches in
    let scope = Counters.create () in
    Counters.with_scope scope (fun () ->
        ignore
          (Tu.search ~engine suite ~o0_costs benches ~base:(C.make C.Gcc C.O2)
             ~opts:
               {
                 Tu.so_strategy = Tu.Hill_climb;
                 so_budget = 5;
                 so_seed = 1;
                 so_debug_weight = 1.0;
                 so_speed_weight = 1.0;
                 so_seeds = [];
               }
            : Tu.search_result));
    Counters.get scope "search/suffix_shared"
  in
  let serialized = search () in
  Alcotest.(check bool) "the search shares prefixes" true (serialized > 0);
  let other = Ev.prepare (sprog 7 "ctr-noise") in
  let configs =
    [ C.make C.Gcc C.O1; C.make ~disabled:[ "dce" ] C.Gcc C.O1;
      C.make ~disabled:[ "inline" ] C.Gcc C.O1 ]
  in
  let concurrent =
    alongside (fun () -> ME.compile_sweep (ME.create ()) other configs) search
  in
  Alcotest.(check int) "concurrent sweeps do not inflate suffix_shared"
    serialized concurrent

let with_store f =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dtcounters-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote d)))
    (fun () -> f d)

let test_oracle_delta_isolated () =
  let p = Programs.find "zlib" in
  (* The sanitizer delta persisted with a cold verdict, as the warm
     replay credits it to the reading scope. *)
  let persisted_delta cold =
    with_store @@ fun d ->
    ignore (cold (fun () -> Diff_oracle.check_program ~store:(ME.open_store ~dir:d ()) p));
    let scope = Counters.create () in
    Counters.with_scope scope (fun () ->
        ignore (Diff_oracle.check_program ~store:(ME.open_store ~dir:d ()) p));
    Alcotest.(check int) "warm run served from the store" 0
      (Counters.get scope "store/oracle/misses");
    Counters.rows ~prefix:"sanitize/" scope
  in
  let serialized = persisted_delta (fun f -> f ()) in
  Alcotest.(check bool) "the check ran the sanitizer" true (serialized <> []);
  let noise = sprog 9 "ctr-sanitized" in
  let sanitized_compile () =
    ignore
      (T.compile (Suite_types.ast noise) ~config:(C.make C.Clang C.O2)
         ~roots:(Suite_types.roots noise)
         ~options:(T.Options.make ~sanitize:true ())
        : Emit.binary)
  in
  let concurrent = persisted_delta (alongside sanitized_compile) in
  Alcotest.check rows "concurrent sanitized compiles stay out of the verdict"
    serialized concurrent

(* The fixture workload runs in a fresh process (counters_golden.exe)
   so process-global counters and caches start from zero. *)
let test_golden_counters () =
  with_store @@ fun d ->
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "counters_golden.exe"
  in
  let out = d ^ ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process exe [| exe; d |] Unix.stdin fd Unix.stderr in
  Unix.close fd;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "counters_golden.exe failed");
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let actual = read out in
  Sys.remove out;
  Alcotest.(check (list string)) "stats rows match golden_counters.txt"
    (String.split_on_char '\n' (read "golden_counters.txt"))
    (String.split_on_char '\n' actual)

let tests =
  [
    Alcotest.test_case "nested scope folds into its parent" `Quick
      test_nested_scope_folds;
    Alcotest.test_case "pool workers inherit the scope" `Quick
      test_pool_inherits_scope;
    Alcotest.test_case "concurrent scopes on domains and threads" `Quick
      test_concurrent_scopes;
    Alcotest.test_case "suffix_shared ignores concurrent sweeps" `Slow
      test_suffix_shared_isolated;
    Alcotest.test_case "oracle cache persists only its own sanitizer counts"
      `Slow test_oracle_delta_isolated;
    Alcotest.test_case "stats rows of a fixed workload match the fixture"
      `Slow test_golden_counters;
  ]
