(** Golden binary digests. Seeded synthetic programs compiled under the
    seven standard configurations and under every single-pass disable of
    gcc-O2 and clang-O2 (seeds 1-8), and under every single-pass disable
    of gcc-O3 and clang-O3 (seeds 1-4), must reproduce the committed
    [full_digest] of every binary: each table, frontier and store key
    depends on these bytes, so a compile-path change that moves one of
    them changes behaviour, however fast it is.

    [golden_digests.txt] holds one line per compile, [seed digest
    fingerprint], in generation order. The digests hash [Marshal] output,
    which is stable within one OCaml release (CI pins 5.1). On a
    mismatch the test writes the digests it computed to
    [golden_digests.actual] in its working directory
    ([_build/default/test]); after a deliberate output change, that file
    replaces the fixture. *)

module C = Debugtuner.Config
module T = Debugtuner.Toolchain

let single_disables level comp =
  List.map
    (fun pass -> C.make ~disabled:[ pass ] comp level)
    (T.pass_names (C.make comp level))

let standard =
  List.concat_map
    (fun comp -> List.map (C.make comp) (C.standard_levels comp))
    [ C.Gcc; C.Clang ]

(* Fixture lines come in two blocks, in this order: seeds 1-8 under the
   standard levels and the O2 single disables, then seeds 1-4 under the
   O3 single disables. *)
let blocks =
  [
    ( List.init 8 (fun i -> i + 1),
      standard @ single_disables C.O2 C.Gcc @ single_disables C.O2 C.Clang );
    ( List.init 4 (fun i -> i + 1),
      single_disables C.O3 C.Gcc @ single_disables C.O3 C.Clang );
  ]

let actual_lines () =
  List.concat_map
    (fun (seeds, configs) ->
      List.concat_map
        (fun seed ->
          let ast = Minic.Typecheck.parse_and_check (Synth.generate ~seed) in
          List.map
            (fun config ->
              let bin = T.compile ast ~config ~roots:[ "main" ] in
              Printf.sprintf "%d %s %s" seed bin.Emit.full_digest
                (C.fingerprint config))
            configs)
        seeds)
    blocks

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

let test_digests_match_fixture () =
  let actual = actual_lines () in
  let expected = read_lines "golden_digests.txt" in
  if actual <> expected then begin
    Out_channel.with_open_bin "golden_digests.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    Alcotest.(check int) "one fixture line per compile" (List.length expected)
      (List.length actual);
    List.iter2 (Alcotest.(check string) "seed digest fingerprint") expected actual
  end

let tests =
  [
    Alcotest.test_case "full_digest matches the committed fixture" `Quick
      test_digests_match_fixture;
  ]
