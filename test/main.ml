let () =
  Alcotest.run "bmhive"
    (List.concat [ Test_engine.suites; Test_validation.suites; Test_hw.suites; Test_virtio.suites; Test_iobond.suites; Test_cloud.suites; Test_fabric.suites; Test_hypervisor.suites; Test_workloads.suites; Test_core.suites; Test_integration.suites; Test_extensions.suites; Test_observability.suites; Test_faults.suites; Test_scheduler.suites; Test_scenario.suites; Test_policy.suites; Test_vf.suites; Test_flags.suites ])
