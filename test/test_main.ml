let () =
  Alcotest.run "wave_indices"
    (Test_util.suites @ Test_disk.suites @ Test_btree.suites
   @ Test_storage.suites @ Test_core.suites @ Test_model.suites
   @ Test_workload.suites @ Test_sim.suites @ Test_obs.suites @ Test_extensions.suites @ Test_features.suites @ Test_persistence.suites @ Test_crash.suites @ Test_cache.suites @ Test_misc.suites @ Test_update.suites
   @ Test_profile.suites @ Test_realdisk.suites @ Test_epoch.suites
   @ Test_shard.suites @ Test_series.suites)
