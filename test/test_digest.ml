(* Output pin for the sequential extractor: every Table 2 figure over a
   kgdb-priced transport, under three seed-7 scenarios (plain, chaos at
   rate 0.3, read-failure injection at 0.02).  Each scenario folds its
   renders, fault journal, target read/byte counters and chaos fired
   count into one MD5; any change to what the extractor reads, records
   or draws changes the digest. *)

type scenario = Plain | Chaos | Inject

let scenario_name = function Plain -> "plain" | Chaos -> "chaos 0.3" | Inject -> "inject 0.02"

let run_figs scenario =
  let k = Kstate.boot () in
  let w = Workload.create ~seed:7 k in
  Workload.run ~iters:12 w;
  let tr = Transport.create ~seed:7 Target.kgdb_rpi400 in
  let s = Visualinux.attach ~transport:tr k in
  let tgt = s.Visualinux.target in
  let mem = k.Kstate.ctx.Kcontext.mem in
  let chaos =
    match scenario with
    | Chaos ->
        let c = Workload.Chaos.create ~seed:7 w ~rate:0.3 in
        Workload.Chaos.arm c tgt;
        Some c
    | Plain | Inject -> None
  in
  if scenario = Inject then Kmem.inject_read_failures mem ~seed:7 0.02;
  let renders =
    List.map
      (fun (sc : Scripts.script) ->
        match Viewcl.run ~cfg:s.Visualinux.cfg tgt sc.Scripts.source with
        | res -> Render.ascii res.Viewcl.graph
        | exception Viewcl.Error e -> "ERROR: " ^ e)
      Scripts.table2
  in
  Option.iter (fun _ -> Workload.Chaos.disarm tgt) chaos;
  if scenario = Inject then Kmem.clear_injection mem;
  let st = Target.stats tgt in
  let fired = match chaos with Some c -> Workload.Chaos.fired c | None -> 0 in
  let journal = List.map Target.fault_to_string (Target.faults tgt) in
  let buf = Buffer.create 65536 in
  List.iter (fun r -> Buffer.add_string buf r; Buffer.add_char buf '\000') renders;
  Buffer.add_string buf "--journal--\n";
  List.iter (fun f -> Buffer.add_string buf f; Buffer.add_char buf '\n') journal;
  Buffer.add_string buf
    (Printf.sprintf "reads=%d bytes=%d fired=%d\n" st.Target.reads st.Target.bytes fired);
  let errors = List.length (List.filter (fun r -> String.starts_with ~prefix:"ERROR" r) renders) in
  (Digest.to_hex (Digest.string (Buffer.contents buf)), errors, List.length journal, fired)

let expected =
  [ (Plain, "324f7e6af7718feba8703bcd09670927");
    (Chaos, "b320cd285b449ca5da69a6a77903fbbd");
    (Inject, "81c0d864d8b3760f4aafd644e3e50d37") ]

let test_scenario scenario () =
  let digest, errors, journal, fired = run_figs scenario in
  (match scenario with
  | Plain -> Alcotest.(check int) "every figure extracts" 0 errors
  | Chaos -> Alcotest.(check bool) "chaos fired" true (fired > 0)
  | Inject -> Alcotest.(check bool) "injection left a journal" true (journal > 0));
  Alcotest.(check string) (scenario_name scenario ^ ": digest") (List.assoc scenario expected)
    digest

let suite =
  List.map
    (fun (sc, _) ->
      Alcotest.test_case ("table 2 " ^ scenario_name sc ^ ": pinned digest") `Quick
        (test_scenario sc))
    expected
