(* Test runner: all suites. *)

let () =
  Alcotest.run "visualinux"
    [ ("kmem", Test_kmem.suite);
      ("ctype", Test_ctype.suite);
      ("target", Test_target.suite);
      ("cexpr", Test_cexpr.suite);
      ("kcontainers", Test_kcontainers.suite);
      ("kmaple", Test_kmaple.suite);
      ("kernel", Test_kernel.suite);
      ("khelpers", Test_khelpers.suite);
      ("faults", Test_faults.suite);
      ("viewcl", Test_viewcl.suite);
      ("viewql", Test_viewql.suite);
      ("transport", Test_transport.suite);
      ("obs", Test_obs.suite);
      ("cache", Test_cache.suite);
      ("sanity", Test_sanity.suite);
      ("render+panel", Test_render_panel.suite);
      ("vchat", Test_vchat.suite);
      ("json+protocol", Test_json_protocol.suite);
      ("session", Test_session.suite);
      ("durable", Test_durable.suite);
      ("digest", Test_digest.suite);
      ("health", Test_health.suite);
      ("trace", Test_trace.suite);
      ("integration", Test_visualinux.suite);
      ("exports", Test_exports.suite) ]
