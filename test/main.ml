(* Aggregated alcotest runner for the whole repository. *)
let () =
  Alcotest.run "debugtuner"
    [
      ("util", Test_util.tests);
      ("minic", Test_minic.tests);
      ("ir", Test_ir.tests);
      ("passes", Test_passes.tests);
      ("passes-edge", Test_passes_edge.tests);
      ("cleanup", Test_cleanup.tests);
      ("backend", Test_backend.tests);
      ("vm", Test_vm.tests);
      ("debugger+metrics", Test_debugger.tests);
      ("fuzz", Test_fuzz.tests);
      ("suite", Test_suite_programs.tests);
      ("toolchain", Test_toolchain.tests);
      ("snapshot", Test_snapshot.tests);
      ("prefix", Test_prefix.tests);
      ("engine", Test_engine.tests);
      ("disk-store", Test_disk_store.tests);
      ("autofdo", Test_autofdo.tests);
      ("extensions", Test_extensions.tests);
      ("sweep", Test_disabled_configs.tests);
      ("debuginfo", Test_debuginfo.tests);
      ("cost-model", Test_cost_model.tests);
      ("interp", Test_interp.tests);
      ("trace-json", Test_trace_json.tests);
      ("debug-verify", Test_debug_verify.tests);
      ("session", Test_session.tests);
      ("properties", Test_properties.tests);
      ("dwarf-encode", Test_dwarf_encode.tests);
      ("value-oracle", Test_value_oracle.tests);
      ("sanitizer", Test_check.tests);
      ("obs", Test_obs.tests);
      ("differential", Test_differential.tests);
      ("vm-conformance", Test_vm_conformance.tests);
      ("api", Test_api.tests);
      ("counters", Test_counters.tests);
      ("shard", Test_shard.tests);
      ("search", Test_search.tests);
      ("golden", Test_golden.tests);
    ]
