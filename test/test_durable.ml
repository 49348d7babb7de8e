(* The durable fleet journal (ISSUE 9): record framing round-trips,
   fsck is total over adversarial images (every truncation offset,
   every flipped byte, fuzzed mutations) and never surfaces a record
   whose CRC did not verify; the Sim's injected faults are seeded and
   deterministic; session-level recovery replays bit-identically and
   keeps journal corruption confined to the owning session. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let boot () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  k

let fig name = (Option.get (Scripts.find name)).Scripts.source
let ql_collapse = "a = SELECT mid FROM *\nUPDATE a WITH collapsed: true"

let pane_state vis =
  List.map
    (fun id ->
      let p = Panel.pane vis.Visualinux.panel id in
      ( id,
        List.map (fun b -> b.Vgraph.id) (Vgraph.boxes p.Panel.graph),
        Render.canonical p.Panel.graph ))
    (Panel.pane_ids vis.Visualinux.panel)

let admitted = function
  | Session.Admitted x -> x
  | Session.Rejected { reason } -> Alcotest.failf "rejected: %s" (Session.reason_to_string reason)

(* A store primed with [specs] = (kind, payload) list. *)
let store specs =
  let d = Durable.create ~seed:11 () in
  List.iter (fun (k, p) -> ignore (Durable.append d ~kind:k ~payload:p)) specs;
  d

let specs_of_records recs = List.map (fun r -> (r.Durable.rkind, r.Durable.rpayload)) recs

let mixed_specs =
  [ (1, "{\"sid\":1}"); (5, "op op op"); (2, ""); (6, String.make 300 'x');
    (3, "bytes\x00\xff\n\x01 with junk"); (5, "{\"op\":{\"k\":\"refine\"}}");
    (4, "\xD7\x4A embedded magic"); (5, "tail") ]

(* -- codec ---------------------------------------------------------- *)

let roundtrip () =
  let d = store mixed_specs in
  let report, recs = Durable.fsck (Durable.contents d) in
  Alcotest.(check int) "all records back" (List.length mixed_specs) report.Durable.records_ok;
  Alcotest.(check int) "no skips" 0 report.Durable.records_skipped;
  Alcotest.(check int) "no torn tail" 0 report.Durable.torn_bytes;
  Alcotest.(check (list (pair int string)))
    "kinds+payloads identical" mixed_specs (specs_of_records recs);
  let gens = List.map (fun r -> r.Durable.rgen) recs in
  assert (List.sort_uniq compare gens = gens && List.sort compare gens = gens)

(* fsck must behave at EVERY truncation point: the records wholly inside
   the cut come back exactly, the straddled one is torn tail, and no
   offset makes it raise. *)
let truncate_everywhere () =
  let d = store mixed_specs in
  let image = Durable.contents d in
  let ends =
    (* running record end offsets, for the oracle *)
    List.rev
      (fst
         (List.fold_left
            (fun (acc, off) raw ->
              let off = off + String.length raw in
              (off :: acc, off))
            ([], 0) (Durable.record_bytes d)))
  in
  for cut = 0 to String.length image do
    let report, recs = Durable.fsck (String.sub image 0 cut) in
    let want = List.length (List.filter (fun e -> e <= cut) ends) in
    Alcotest.(check int)
      (Printf.sprintf "records at cut %d" cut)
      want report.Durable.records_ok;
    let last_end = List.fold_left (fun a e -> if e <= cut then max a e else a) 0 ends in
    Alcotest.(check int)
      (Printf.sprintf "torn bytes at cut %d" cut)
      (cut - last_end) report.Durable.torn_bytes;
    List.iteri
      (fun i r ->
        Alcotest.(check (pair int string))
          "prefix record intact"
          (List.nth mixed_specs i)
          (r.Durable.rkind, r.Durable.rpayload))
      recs
  done

(* ...and at every flipped header/payload byte: never a raise, never a
   record that was not appended, and every record the flip did not
   touch survives (magic resync skips exactly the damaged one — unless
   it is the last record, where the damage reads as a torn tail). *)
let flip_every_byte () =
  let specs = [ (5, "alpha {x}"); (1, "beta\nbeta"); (6, "gamma gamma gamma") ] in
  let d = store specs in
  let image = Durable.contents d in
  let bounds =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, off) raw ->
              let e = off + String.length raw in
              ((off, e) :: acc, e))
            ([], 0) (Durable.record_bytes d)))
  in
  let victim i = List.length (List.filter (fun (o, _) -> o <= i) bounds) - 1 in
  for i = 0 to String.length image - 1 do
    for b = 0 to 7 do
      let report, recs = Durable.fsck (Durable.flip_bit image ((i * 8) + b)) in
      ignore report;
      let got = specs_of_records recs in
      (* only appended payloads ever come back *)
      List.iter (fun s -> assert (List.mem s specs)) got;
      (* everything the flip did not touch survives *)
      List.iteri (fun j s -> if j <> victim i then assert (List.mem s got)) specs
    done
  done

let fuzz_fsck_total =
  QCheck.Test.make ~name:"fsck is total and honest over fuzzed op soups" ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_bound 15) (int_bound 3))
    (fun (seed, nrec, mutation) ->
      let rnd = ref (seed lor 1) in
      let rand m =
        rnd := ((!rnd * 0x5DEECE66D) + 0xB) land max_int;
        (!rnd lsr 17) mod m
      in
      let specs =
        List.init (1 + nrec) (fun _ ->
            ( 1 + rand 6,
              String.init (rand 80) (fun _ -> Char.chr (rand 256)) ))
      in
      let d = store specs in
      let image = Durable.contents d in
      let image =
        match mutation with
        | 0 -> String.sub image 0 (rand (String.length image + 1))
        | 1 -> Durable.flip_bit image (rand (8 * String.length image))
        | 2 ->
            (* splice garbage mid-stream *)
            let at = rand (String.length image + 1) in
            String.sub image 0 at
            ^ String.init (1 + rand 40) (fun _ -> Char.chr (rand 256))
            ^ String.sub image at (String.length image - at)
        | _ ->
            Durable.flip_bit
              (String.sub image 0 (rand (String.length image + 1)))
              (rand (8 * String.length image))
      in
      let _, recs = Durable.fsck image in
      (* never a corrupt payload, generations strictly increasing *)
      List.iter (fun s -> assert (List.mem s specs)) (specs_of_records recs);
      let gens = List.map (fun r -> r.Durable.rgen) recs in
      List.sort_uniq compare gens = gens)

(* -- the Sim: injected faults are seeded and deterministic ---------- *)

let sim_lost_flush () =
  let d = Durable.create ~seed:42 () in
  for i = 1 to 8 do
    ignore (Durable.append d ~kind:5 ~payload:(Printf.sprintf "op%d" i))
  done;
  Durable.flush d;
  for i = 9 to 12 do
    ignore (Durable.append d ~kind:5 ~payload:(Printf.sprintf "op%d" i))
  done;
  Durable.set_crash ~fault:Durable.Lost_flush d ~after:12;
  ignore (Durable.append d ~kind:5 ~payload:"dropped");
  assert (Durable.crashed d);
  let image = Durable.disk_image d in
  Alcotest.(check string) "disk image deterministic" image (Durable.disk_image d);
  let report, recs = Durable.fsck image in
  Alcotest.(check int) "unflushed tail gone" 8 report.Durable.records_ok;
  Alcotest.(check int) "clean cut, no torn bytes" 0 report.Durable.torn_bytes;
  Alcotest.(check string) "last surviving op" "op8" (List.nth recs 7).Durable.rpayload

let sim_torn_and_flip () =
  List.iter
    (fun fault ->
      let d = Durable.create ~seed:42 () in
      for i = 1 to 12 do
        ignore (Durable.append d ~kind:5 ~payload:(Printf.sprintf "op-%d-payload" i))
      done;
      Durable.set_crash ~fault d ~after:12;
      ignore (Durable.append d ~kind:5 ~payload:"dropped");
      let image = Durable.disk_image d in
      Alcotest.(check string) "deterministic" image (Durable.disk_image d);
      let report, recs = Durable.fsck image in
      (* one record damaged at most, and it never comes back corrupt *)
      assert (report.Durable.records_ok >= 11);
      List.iter
        (fun r -> assert (contains r.Durable.rpayload "-payload"))
        recs;
      if fault = Durable.Torn_tail then assert (report.Durable.torn_bytes > 0))
    [ Durable.Torn_tail; Durable.Bit_flip ]

let compact_keeps_generations () =
  let d = store (List.init 10 (fun i -> (5, Printf.sprintf "op%d" i))) in
  let g10 = Durable.last_gen d in
  Durable.compact d ~kind:6 ~payload:"snapshot";
  for i = 10 to 12 do
    ignore (Durable.append d ~kind:5 ~payload:(Printf.sprintf "op%d" i))
  done;
  Alcotest.(check int) "tail counts since compact" 4 (Durable.tail_records d);
  let report, recs = Durable.fsck (Durable.contents d) in
  Alcotest.(check int) "snapshot + tail" 4 report.Durable.records_ok;
  Alcotest.(check int) "snapshot kind first" 6 (List.hd recs).Durable.rkind;
  assert ((List.hd recs).Durable.rgen > g10)

(* -- session-level recovery ----------------------------------------- *)

let fleet_of srv sids = List.map (fun sid -> (sid, pane_state (Option.get (Session.vis srv sid)))) sids

let wal_replay_identity () =
  let kernel = boot () in
  let srv = Session.create kernel in
  let s1 = admitted (Session.open_session srv "alice") in
  let s2 = admitted (Session.open_session srv "bob") in
  let p1, _, _ = admitted (Session.vplot srv s1 (fig "3-6")) in
  let p2, _, _ = admitted (Session.vplot srv s2 (fig "7-1")) in
  Session.attach_wal srv (Durable.create ~seed:3 ());
  ignore
    (admitted
       (Session.vctrl srv s1 (Visualinux.Apply { pane = p1.Panel.pid; viewql = ql_collapse })));
  ignore
    (admitted
       (Session.vctrl srv s2
          (Visualinux.Split
             { pane = p2.Panel.pid; dir = `Horizontal; program = fig "11-1" })));
  ignore
    (admitted
       (Session.vctrl srv s2 (Visualinux.Apply { pane = p2.Panel.pid; viewql = ql_collapse })));
  let want = fleet_of srv [ s1; s2 ] in
  let image = Durable.contents (Option.get (Session.wal_of srv)) in
  let srv' = Session.create kernel in
  let rcv = Session.recover_durable srv' image in
  List.iter
    (fun (s : Session.srecovery) ->
      Alcotest.(check bool) "replayed clean" true (s.Session.rsalvage = Session.Replayed))
    rcv.Session.rsessions;
  Alcotest.(check bool) "last_recovery set" true (Session.last_recovery srv' <> None);
  List.iter
    (fun (sid, st) ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d bit-identical (panes, boxes, text)" sid)
        true
        (pane_state (Option.get (Session.vis srv' sid)) = st))
    want

let corrupt_isolation () =
  let kernel = boot () in
  let srv = Session.create kernel in
  let sids =
    List.map (fun n -> admitted (Session.open_session srv n)) [ "a"; "b"; "c" ]
  in
  let panes =
    List.map2
      (fun sid f -> (sid, (fun (p, _, _) -> p.Panel.pid) (admitted (Session.vplot srv sid (fig f)))))
      sids [ "3-6"; "7-1"; "11-1" ]
  in
  Session.attach_wal srv (Durable.create ~seed:5 ());
  (* two journaled ops per session, so every victim has a later op and
     the salvage is typed, not tail-ambiguous *)
  List.iter
    (fun (sid, pane) ->
      ignore (admitted (Session.vctrl srv sid (Visualinux.Apply { pane; viewql = ql_collapse })));
      ignore
        (admitted
           (Session.vctrl srv sid
              (Visualinux.Apply
                 { pane; viewql = "a = SELECT mid FROM *\nUPDATE a WITH collapsed: false" }))))
    panes;
  let want = fleet_of srv sids in
  Alcotest.(check bool) "corruption injected" true (Session.corrupt_wal srv);
  let image = Durable.contents (Option.get (Session.wal_of srv)) in
  let srv' = Session.create kernel in
  let rcv = Session.recover_durable srv' image in
  Alcotest.(check int)
    "fsck skipped the bad run" 1 rcv.Session.rreport.Durable.records_skipped;
  let degraded =
    List.filter (fun (s : Session.srecovery) -> s.Session.rsalvage <> Session.Replayed)
      rcv.Session.rsessions
  in
  Alcotest.(check int) "exactly one session degraded" 1 (List.length degraded);
  (match degraded with
  | [ s ] -> (
      (match s.Session.rsalvage with
      | Session.Salvaged { dropped } -> assert (dropped >= 1)
      | _ -> Alcotest.fail "expected a typed salvage");
      (* data loss is visible: the salvaged session serves [STALE] *)
      match Session.render srv' s.Session.rsid (List.assoc s.Session.rsid panes) with
      | Some txt -> Alcotest.(check bool) "stale tag" true (contains txt "[STALE]")
      | None -> Alcotest.fail "salvaged pane must still render")
  | _ -> assert false);
  (* isolation: every other session is bit-identical to pre-crash *)
  List.iter
    (fun (s : Session.srecovery) ->
      if s.Session.rsalvage = Session.Replayed then
        Alcotest.(check bool)
          (Printf.sprintf "neighbour %d untouched" s.Session.rsid)
          true
          (pane_state (Option.get (Session.vis srv' s.Session.rsid))
          = List.assoc s.Session.rsid want))
    rcv.Session.rsessions

let snapshot_corruption_quarantines () =
  let kernel = boot () in
  let srv = Session.create kernel in
  let sid = admitted (Session.open_session srv "solo") in
  let p, _, _ = admitted (Session.vplot srv sid (fig "3-6")) in
  Session.attach_wal srv (Durable.create ~seed:9 ());
  ignore
    (admitted (Session.vctrl srv sid (Visualinux.Apply { pane = p.Panel.pid; viewql = ql_collapse })));
  let wal = Option.get (Session.wal_of srv) in
  let image = Durable.contents wal in
  (* flip a payload bit of the snapshot record itself: nothing anchors
     the ops any more, so the session comes back a quarantined ghost *)
  let image = Durable.flip_bit image ((15 + 40) * 8) in
  let srv' = Session.create kernel in
  let rcv = Session.recover_durable srv' image in
  List.iter
    (fun (s : Session.srecovery) ->
      Alcotest.(check bool)
        "quarantined ghost" true
        (s.Session.rsalvage = Session.Quarantined_stale))
    rcv.Session.rsessions;
  Alcotest.(check bool) "still one session" true (rcv.Session.rsessions <> [])

(* Every config change is journaled: weight, fault rates and a budget
   with a fractional wire-time limit come back from the WAL exactly.  A
   budget-only config record, the older form, still replays and leaves
   the weight it does not carry alone. *)
let wal_config_recovery () =
  let kernel = boot () in
  let srv = Session.create kernel in
  Session.attach_wal srv (Durable.create ~seed:13 ());
  let sid = admitted (Session.open_session srv "cfg") in
  let budget = { Session.unlimited with Session.max_sim_ms = Some 123.4567891 } in
  Session.set_weight srv sid 3;
  Session.set_faults srv sid (Transport.faults_of_rate 0.1);
  Session.set_budget srv sid budget;
  let srv' = Session.create kernel in
  let rcv = Session.recover_durable srv' (Durable.contents (Option.get (Session.wal_of srv))) in
  let sid' = (List.hd rcv.Session.rsessions).Session.rsid in
  Alcotest.(check int) "weight" 3 (Session.weight_of srv' sid');
  Alcotest.(check bool) "budget, max_sim_ms exact" true (Session.budget_of srv' sid' = Some budget);
  Alcotest.(check string) "whole config, faults included" (Session.fleet_image srv)
    (Session.fleet_image srv');
  let old = Durable.create () in
  List.iter
    (fun (kind, payload) -> ignore (Durable.append old ~kind ~payload))
    [ ( 1,
        {|{"sid":1,"name":"old","target":"t0","weight":2,"budget":{"max_reads":null,"max_sim_ms":null,"plot_deadline_ms":null,"retry_burst":null},"faults":{"stall":0,"drop":0,"disconnect":0}}|}
      );
      ( 3,
        {|{"sid":1,"budget":{"max_reads":7,"max_sim_ms":null,"plot_deadline_ms":null,"retry_burst":null}}|}
      ) ];
  let srv'' = Session.create kernel in
  let rcv = Session.recover_durable srv'' (Durable.contents old) in
  let sid'' = (List.hd rcv.Session.rsessions).Session.rsid in
  Alcotest.(check int) "old record: weight kept" 2 (Session.weight_of srv'' sid'');
  Alcotest.(check bool) "old record: budget replayed" true
    (Session.budget_of srv'' sid'' = Some { Session.unlimited with Session.max_reads = Some 7 })

(* The WAL is the only on-disk format: a fleet JSON snapshot written
   by an older `server save` is not a record stream, so fsck reports it
   as one torn tail and nothing is replayed. *)
let fleet_json_is_not_a_wal () =
  let kernel = boot () in
  (* a string's JSON body, without the quotes *)
  let esc s =
    let q = Json.to_string (Json.String s) in
    String.sub q 1 (String.length q - 2)
  in
  let json =
    Printf.sprintf
      "{\"fleet\":[{\"sid\":1,\"name\":\"alice\",\"target\":\"t0\",\"weight\":1,\
       \"opno\":2,\"budget\":{\"max_reads\":null,\"max_sim_ms\":null,\
       \"plot_deadline_ms\":null,\"retry_burst\":null},\
       \"faults\":{\"stall\":0,\"drop\":0,\"disconnect\":0},\
       \"jn\":{\"journal\":[{\"op\":\"open\",\"program\":\"%s\"},\
       {\"op\":\"refine\",\"at\":1,\"viewql\":\"%s\"}]}}]}"
      (esc (fig "3-6")) (esc ql_collapse)
  in
  let check_report what (r : Durable.report) =
    Alcotest.(check int) (what ^ ": no record parses") 0 r.Durable.records_ok;
    Alcotest.(check int) (what ^ ": every byte is torn tail") (String.length json)
      r.Durable.torn_bytes
  in
  let report, plan = Session.fsck_image json in
  check_report "fsck" report;
  Alcotest.(check int) "fsck plans no session" 0 (List.length plan);
  let srv = Session.create kernel in
  let before = Session.session_ids srv in
  let rcv = Session.recover_durable srv json in
  check_report "recover" rcv.Session.rreport;
  Alcotest.(check int) "no session recovered" 0 (List.length rcv.Session.rsessions);
  Alcotest.(check (list int)) "session table unchanged" before (Session.session_ids srv)

let suite =
  [ Alcotest.test_case "record soup round-trips through fsck" `Quick roundtrip;
    Alcotest.test_case "truncation at every offset is survivable" `Quick truncate_everywhere;
    Alcotest.test_case "a flipped bit in any byte never leaks corruption" `Quick
      flip_every_byte;
    QCheck_alcotest.to_alcotest fuzz_fsck_total;
    Alcotest.test_case "lost-flush crash keeps exactly the flushed prefix" `Quick
      sim_lost_flush;
    Alcotest.test_case "torn-tail and bit-flip crashes are deterministic" `Quick
      sim_torn_and_flip;
    Alcotest.test_case "compaction preserves generations and the tail" `Quick
      compact_keeps_generations;
    Alcotest.test_case "recovery replays the fleet bit-identically" `Quick
      wal_replay_identity;
    Alcotest.test_case "journal corruption stays inside the owning session" `Quick
      corrupt_isolation;
    Alcotest.test_case "an unsalvageable snapshot quarantines, never crashes" `Quick
      snapshot_corruption_quarantines;
    Alcotest.test_case "a fleet JSON snapshot is a torn tail, never replayed" `Quick
      fleet_json_is_not_a_wal;
    Alcotest.test_case "config changes are journaled and replayed exactly" `Quick
      wal_config_recovery ]
