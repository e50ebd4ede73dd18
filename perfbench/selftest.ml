(* The benchmark's own test. For each workload it makes two traced runs
   of one seed through run.sh and checks, from their printed results
   (parsed with Api_json):

   - both runs are correct, with no failed item;
   - the deterministic counts are identical across the two runs;
   - the rendered tables / frontier digests are identical;
   - the layer accounting holds: the leaf layers plus unattributed_s
     sum to the traced total, and the remainder is not negative.

     dune build ./perfbench/selftest.exe && ./_build/default/perfbench/selftest.exe [SEED]

   Run from the repository root; exits non-zero on any violation. *)

module J = Api_json

let deterministic =
  [ "vm.instrs"; "passes.executed"; "engine.prefix_passes_skipped";
    "engine.store_hits"; "engine.store_misses"; "engine.store_writes";
    "core.search_candidates"; "core.suffix_shared"; "fuzz.prepare_calls";
    "ir.snapshot_bytes" ]

let errors = ref 0

let error fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      Printf.printf "FAIL %s\n%!" s)
    fmt

(** One traced run: (result object, accounting object, digest lines). *)
let run workload seed =
  let ic =
    Unix.open_process_args_in "bash"
      [| "bash"; "perfbench/run.sh"; "--workload"; workload; "--seed";
         string_of_int seed; "--seconds"; "5"; "--trace"; "1" |]
  in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (read []) in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> error "%s: benchmark exited abnormally" workload);
  let parse what l =
    match J.parse_result l with
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "%s: bad %s JSON: %s" workload what e)
  in
  let result = parse "result" (List.nth lines (List.length lines - 1)) in
  let accounting =
    parse "accounting" (List.find (String.starts_with ~prefix:"{\"accounting_total_s\"") lines)
  in
  (result, accounting, List.filter (String.starts_with ~prefix:"digest ") lines)

let metric result name =
  match Option.bind (J.field "metrics" result) (J.field name) with
  | Some v -> Option.get (Option.bind (J.field "value" v) J.num)
  | None -> failwith ("missing metric " ^ name)

let check workload seed =
  let r1, a1, d1 = run workload seed in
  let r2, _, d2 = run workload seed in
  List.iter
    (fun r ->
      if J.field "correct" r <> Some (J.Bool true) || Option.bind (J.field "failed" r) J.int <> Some 0
      then error "%s: run not correct" workload)
    [ r1; r2 ];
  List.iter
    (fun k ->
      let v1 = metric r1 k and v2 = metric r2 k in
      if v1 <> v2 then error "%s: %s differs across runs (%.0f vs %.0f)" workload k v1 v2)
    deterministic;
  if d1 <> d2 || d1 = [] then error "%s: digests differ across runs" workload;
  let num o k = Option.get (Option.bind (J.field k o) J.num) in
  let total = num a1 "accounting_total_s" and rest = num a1 "unattributed_s" in
  let leaves =
    match J.field "leaves" a1 with
    | Some (J.Obj l) -> List.fold_left (fun s (_, v) -> s +. Option.get (J.num v)) 0.0 l
    | _ -> failwith "missing leaves"
  in
  if rest < 0.0 then error "%s: negative unattributed remainder %.6f s" workload rest;
  if Float.abs (leaves +. rest -. total) > 1e-6 *. Float.max 1.0 total then
    error "%s: layers %.6f + unattributed %.6f <> total %.6f" workload leaves rest total;
  Printf.printf "%s: checked (traced total %.3f s, unattributed %.3f s)\n%!" workload total rest

let () =
  let seed = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 11 in
  List.iter (fun w -> check w seed) [ "corpus-eval"; "tune"; "serve" ];
  if !errors > 0 then begin
    Printf.printf "%d check(s) failed\n" !errors;
    exit 1
  end;
  print_endline "all checks passed"
