(* Loopback smoke for the serve daemon, driving the real CLI executable
   as a subprocess.  Four end-to-end guarantees from the campaign-service
   acceptance list:

   1. Determinism: a daemon-run analyze job is byte-identical to the
      one-shot CLI's [--report] output for the same committed netlist, at
      job worker caps 1 and 4.
   2. Hardening: a second daemon on the same socket refuses to start
      (exit 2) while the first is alive.
   3. Multi-tenancy: three concurrent clients share one verdict store —
      tenants that never populated the cache still observe hits.
   4. Resilience: a daemon SIGKILLed mid-resynthesis leaves a resumable
      per-job checkpoint; a restarted daemon re-runs the job and delivers
      a byte-identical report (same accepted ECO chain, same final
      netlist hash) to an uninterrupted run.
   5. Exhaustion + certification: a daemon started with injected
      EMFILE accept failures (serve.accept_emfile failpoint) and
      --certify never exits — it backs off, recovers, and the certified
      job's report is still byte-identical to the uncertified one-shot.
   6. Ledger recovery: a torn tail on the job ledger is cut off at the
      next start, so jobs recorded after it survive a further restart and
      job ids are never handed out twice; a ledger in a foreign format
      makes the daemon refuse to start (exit 2, one line) instead of
      discarding job history.
   7. One SAT engine: a submit whose sat_mode is anything but
      "incremental" is refused with one line naming the value, the next
      valid submit still completes, and a ledger-recovered job carrying
      "oneshot" ends failed with the same message instead of crashing.

   Usage: serve_smoke CLI_EXE NETLIST_FILE *)

module Client = Dfm_serve.Client
module Protocol = Dfm_serve.Protocol

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let pass fmt = Printf.ksprintf (fun s -> Printf.printf "ok   %s\n%!" s) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Socket paths must stay under the ~107-byte sun_path limit; dune
   sandboxes nest deep, so sockets live in the system temp dir while all
   persistent state stays inside the sandbox cwd. *)
let sock_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dfm_smoke_%d_%s.sock" (Unix.getpid ()) tag)

let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0

let spawn exe args ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) devnull out out in
  Unix.close out;
  pid

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

(* Wait until the daemon accepts connections (it unlinks/creates the
   socket and replays its ledger first; allow a generous grace). *)
let wait_ready sock =
  let rec go n =
    if n = 0 then failwith ("daemon never became ready on " ^ sock)
    else
      match Client.connect sock with
      | Ok c ->
          Client.close c;
          ()
      | Error _ ->
          Unix.sleepf 0.05;
          go (n - 1)
  in
  go 200

let start_daemon exe ~sock ~state ~log =
  let pid = spawn exe [ "serve"; "--socket"; sock; "--state-dir"; state; "-j"; "2" ] ~log in
  wait_ready sock;
  pid

let stop_daemon ~sock ~pid =
  (match Client.connect sock with
  | Ok c ->
      (match Client.request c Protocol.Drain with
      | Ok (Protocol.Drained _) -> ()
      | Ok _ | Error _ -> ());
      Client.close c
  | Error _ -> ());
  ignore (wait_exit pid)

let submit_analyze ?(jobs = 1) ~client ~name ~netlist sock =
  match Client.connect sock with
  | Error e -> Error e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.submit_and_wait c
            Protocol.
              {
                client;
                kind = Analyze;
                name;
                netlist;
                limits = { Protocol.no_limits with jobs = Some jobs };
                static_filter = false;
                sat_mode = None;
                q_max = None;
                p1 = None;
              })

let submit_resynth ~client ~name ~netlist sock =
  match Client.connect sock with
  | Error e -> Error e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.submit_and_wait c
            Protocol.
              {
                client;
                kind = Resynth;
                name;
                netlist;
                limits = Protocol.no_limits;
                static_filter = false;
                sat_mode = None;
                q_max = None;
                p1 = None;
              })

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: serve_smoke CLI_EXE NETLIST_FILE";
    exit 2
  end;
  let exe = Sys.argv.(1) and netlist_file = Sys.argv.(2) in
  let netlist_text = read_file netlist_file in
  let sock1 = sock_path "main" in

  (* ---- 1. determinism against the one-shot CLI --------------------- *)
  let pid1 = start_daemon exe ~sock:sock1 ~state:"smoke_state1" ~log:"smoke_daemon1.log" in
  let rc =
    wait_exit
      (spawn exe [ "analyze"; netlist_file; "--jobs"; "1"; "--report"; "oneshot.rep" ]
         ~log:"smoke_oneshot.log")
  in
  if rc <> 0 then fail "one-shot analyze exited %d" rc;
  let reference = read_file "oneshot.rep" in
  List.iter
    (fun jobs ->
      match
        submit_analyze ~jobs ~client:"alpha" ~name:netlist_file ~netlist:netlist_text sock1
      with
      | Error e -> fail "submit (jobs=%d): %s" jobs e
      | Ok r ->
          if r.Protocol.r_outcome <> "done" then
            fail "analyze (jobs=%d) outcome %s" jobs r.Protocol.r_outcome
          else if not (String.equal r.Protocol.r_report reference) then
            fail "daemon report (jobs=%d) differs from one-shot --report" jobs
          else pass "daemon analyze (jobs=%d) byte-identical to one-shot CLI" jobs)
    [ 1; 4 ];

  (* ---- 2. duplicate daemon refuses with exit 2 --------------------- *)
  let dup =
    spawn exe
      [ "serve"; "--socket"; sock1; "--state-dir"; "smoke_state_dup" ]
      ~log:"smoke_dup.log"
  in
  (match wait_exit dup with
  | 2 -> pass "duplicate daemon on a live socket exits 2"
  | n -> fail "duplicate daemon exited %d, want 2" n);

  (* ---- 3. three tenants share one verdict store -------------------- *)
  let tenants = [ "alpha"; "bravo"; "charlie" ] in
  let outcomes = Hashtbl.create 4 in
  let m = Mutex.create () in
  let threads =
    List.map
      (fun t ->
        Thread.create
          (fun () ->
            let r =
              submit_analyze ~jobs:2 ~client:t ~name:netlist_file ~netlist:netlist_text
                sock1
            in
            Mutex.protect m (fun () -> Hashtbl.replace outcomes t r))
          ())
      tenants
  in
  List.iter Thread.join threads;
  List.iter
    (fun t ->
      match Hashtbl.find_opt outcomes t with
      | Some (Ok r) when r.Protocol.r_outcome = "done" -> ()
      | Some (Ok r) -> fail "tenant %s outcome %s" t r.Protocol.r_outcome
      | Some (Error e) -> fail "tenant %s: %s" t e
      | None -> fail "tenant %s never reported" t)
    tenants;
  (match Client.connect sock1 with
  | Error e -> fail "status connect: %s" e
  | Ok c ->
      (match Client.request c (Protocol.Status None) with
      | Ok (Protocol.Status_report { clients; _ }) ->
          let hits t =
            match List.find_opt (fun cv -> cv.Protocol.cv_client = t) clients with
            | Some cv -> cv.Protocol.cv_cache_hits
            | None -> -1
          in
          (* alpha warmed the store during the determinism runs; bravo and
             charlie never populated it, so any hits they see are
             cross-tenant by construction *)
          if hits "bravo" > 0 && hits "charlie" > 0 then
            pass "cross-tenant verdict sharing (bravo %d hits, charlie %d hits)"
              (hits "bravo") (hits "charlie")
          else fail "expected cross-tenant hits, got bravo %d charlie %d" (hits "bravo")
              (hits "charlie")
      | Ok _ -> fail "unexpected status response"
      | Error e -> fail "status: %s" e);
      Client.close c);

  (* The live Prometheus exposition must attribute engine work per tenant:
     every family below gets a {job=...,tenant=...} series for each tenant
     that did work, alongside the unlabeled base series. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let fetch_metrics sock =
    match Client.connect sock with
    | Error e ->
        fail "metrics connect: %s" e;
        ""
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.request c Protocol.Metrics with
            | Ok (Protocol.Metrics_text s) -> s
            | Ok _ ->
                fail "unexpected metrics response";
                ""
            | Error e ->
                fail "metrics: %s" e;
                "")
  in
  let prom = fetch_metrics sock1 in
  let attributed_families =
    [
      "dfm_atpg_sat_queries_total";
      "dfm_sat_conflicts_total";
      "dfm_cache_hits_total";
      "dfm_cache_misses_total";
    ]
  in
  (* a family has tenant attribution when some sample line of that family
     carries the tenant label (labels render canonically sorted, so the
     series reads fam{job="...",tenant="..."}) *)
  let has_attributed prom fam tenant =
    List.exists
      (fun line ->
        String.length line > String.length fam
        && String.sub line 0 (String.length fam) = fam
        && contains line (Printf.sprintf "tenant=\"%s\"" tenant))
      (String.split_on_char '\n' prom)
  in
  List.iter
    (fun tenant ->
      let missing =
        List.filter (fun fam -> not (has_attributed prom fam tenant)) attributed_families
      in
      if missing = [] then pass "per-tenant attribution for %s in live Prometheus" tenant
      else
        fail "tenant %s missing attributed series: %s" tenant (String.concat " " missing))
    [ "alpha"; "bravo" ];
  stop_daemon ~sock:sock1 ~pid:pid1;

  (* ---- 5. EMFILE chaos + daemon-wide certify ----------------------- *)
  (* The failpoint rejects the first accepts as injected EMFILE; the
     daemon must shed/back off rather than exit, then serve the certified
     job whose report must still match the uncertified one-shot. *)
  let sock4 = sock_path "chaos" in
  let pid5 =
    spawn exe
      [
        "serve"; "--socket"; sock4; "--state-dir"; "smoke_state4"; "-j"; "2"; "--certify";
        "--failpoint"; "serve.accept_emfile=raise:times=3";
      ]
      ~log:"smoke_daemon4.log"
  in
  wait_ready sock4;
  (match
     submit_analyze ~jobs:1 ~client:"echo" ~name:netlist_file ~netlist:netlist_text sock4
   with
  | Ok r when r.Protocol.r_outcome = "done" && String.equal r.Protocol.r_report reference ->
      pass "daemon survived injected EMFILE; certified report byte-identical"
  | Ok r -> fail "chaos/certify analyze outcome %s" r.Protocol.r_outcome
  | Error e -> fail "chaos/certify analyze: %s" e);
  (* certified checks are attributable too *)
  let prom4 = fetch_metrics sock4 in
  if has_attributed prom4 "dfm_cert_checked_total" "echo" then
    pass "certified checks attributed to tenant echo"
  else fail "dfm_cert_checked_total has no tenant=\"echo\" series";
  stop_daemon ~sock:sock4 ~pid:pid5;

  (* ---- 4. SIGKILL mid-resynthesis, restart, identical report ------- *)
  (* The netlist is generated in-process and submitted as text, so both
     runs take the identical daemon path; sparc_spu at scale 0.4 runs a
     multi-second campaign, leaving a wide window to land the kill. *)
  let spu =
    Dfm_netlist.Netlist_io.to_string (Dfm_circuits.Circuits.build ~scale:0.4 "sparc_spu")
  in
  let sock2 = sock_path "ref" in
  let pid2 = start_daemon exe ~sock:sock2 ~state:"smoke_state2" ~log:"smoke_daemon2.log" in
  let reference =
    match submit_resynth ~client:"delta" ~name:"sparc_spu" ~netlist:spu sock2 with
    | Ok r when r.Protocol.r_outcome = "done" ->
        pass "uninterrupted resynth campaign (%d accepted)" r.Protocol.r_accepted;
        Some r.Protocol.r_report
    | Ok r ->
        fail "uninterrupted resynth outcome %s" r.Protocol.r_outcome;
        None
    | Error e ->
        fail "uninterrupted resynth: %s" e;
        None
  in
  stop_daemon ~sock:sock2 ~pid:pid2;
  (match reference with
  | None -> ()
  | Some reference ->
      let sock3 = sock_path "kill" in
      let pid3 =
        start_daemon exe ~sock:sock3 ~state:"smoke_state3" ~log:"smoke_daemon3.log"
      in
      let victim = ref (Error "never ran") in
      let th =
        Thread.create
          (fun () ->
            victim := submit_resynth ~client:"delta" ~name:"sparc_spu" ~netlist:spu sock3)
          ()
      in
      Unix.sleepf 1.0;
      Unix.kill pid3 Sys.sigkill;
      ignore (wait_exit pid3);
      Thread.join th;
      (match !victim with
      | Error _ -> pass "client connection died with the daemon"
      | Ok r ->
          (* the campaign outran the kill; the ledger then replays the
             finished result, which still must match *)
          pass "kill landed after completion (outcome %s) — replay must still match"
            r.Protocol.r_outcome);
      if not (Sys.file_exists "smoke_state3/jobs/J1/campaign.ckpt") then
        fail "no per-job checkpoint under the daemon state dir";
      let pid4 =
        start_daemon exe ~sock:sock3 ~state:"smoke_state3" ~log:"smoke_daemon3.log"
      in
      (match Client.connect sock3 with
      | Error e -> fail "reconnect after restart: %s" e
      | Ok c ->
          (match Client.await c "J1" with
          | Ok r when String.equal r.Protocol.r_report reference ->
              pass "restarted daemon resumed J1 with a byte-identical report"
          | Ok r ->
              fail "resumed report differs from uninterrupted run (outcome %s)"
                r.Protocol.r_outcome
          | Error e -> fail "await after restart: %s" e);
          Client.close c);
      stop_daemon ~sock:sock3 ~pid:pid4);

  (* ---- 6. ledger recovery ------------------------------------------ *)
  let sock5 = sock_path "ledger" and state5 = "smoke_state5" in
  let run_one label =
    let pid = start_daemon exe ~sock:sock5 ~state:state5 ~log:"smoke_daemon5.log" in
    (match
       submit_analyze ~client:"foxtrot" ~name:netlist_file ~netlist:netlist_text sock5
     with
    | Ok r when r.Protocol.r_outcome = "done" -> ()
    | Ok r -> fail "%s: outcome %s" label r.Protocol.r_outcome
    | Error e -> fail "%s: %s" label e);
    stop_daemon ~sock:sock5 ~pid
  in
  run_one "ledger job J1";
  (* a kill mid-append leaves half a record behind the last good one *)
  let torn = Dfm_util.Journal.encode {|{"rec":"submit","job":"J9","sub":"torn"}|} in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 (state5 ^ "/ledger.bin")
  in
  output_string oc (String.sub torn 0 (String.length torn / 2));
  close_out oc;
  run_one "ledger job J2";
  let pid = start_daemon exe ~sock:sock5 ~state:state5 ~log:"smoke_daemon5.log" in
  (match Client.connect sock5 with
  | Error e -> fail "ledger status connect: %s" e
  | Ok c ->
      (match Client.request c (Protocol.Status None) with
      | Ok (Protocol.Status_report { jobs; _ }) ->
          let done_ids =
            List.filter_map
              (fun jv ->
                if jv.Protocol.jv_state = Protocol.Done then Some jv.Protocol.jv_id else None)
              jobs
          in
          if done_ids = [ "J1"; "J2" ] then
            pass "jobs recorded after a torn ledger tail survive restart"
          else
            fail "after torn-tail restart, done jobs are [%s], want [J1; J2]"
              (String.concat "; " done_ids)
      | Ok _ -> fail "unexpected status response"
      | Error e -> fail "ledger status: %s" e);
      (match
         Client.request c
           (Protocol.Submit
              Protocol.
                {
                  client = "foxtrot";
                  kind = Analyze;
                  name = netlist_file;
                  netlist = netlist_text;
                  limits = Protocol.no_limits;
                  static_filter = false;
                  sat_mode = None;
                  q_max = None;
                  p1 = None;
                })
       with
      | Ok (Protocol.Accepted { job = "J3"; _ }) -> pass "next submit gets the fresh id J3"
      | Ok (Protocol.Accepted { job; _ }) ->
          fail "next submit reused or skipped an id: %s" job
      | Ok _ -> fail "unexpected submit response"
      | Error e -> fail "ledger submit: %s" e);
      Client.close c);
  stop_daemon ~sock:sock5 ~pid;
  (* a ledger this build cannot read is refused, not silently replaced *)
  let state6 = "smoke_state6" in
  if not (Sys.file_exists state6) then Sys.mkdir state6 0o755;
  let oc = open_out_bin (state6 ^ "/ledger.bin") in
  output_string oc "DFS1\x05\x00\x00\x00hello\x00\x00\x00\x00\x00\x00\x00\x00";
  close_out oc;
  let log6 = "smoke_daemon6.log" in
  if Sys.file_exists log6 then Sys.remove log6;
  let pid6 =
    spawn exe [ "serve"; "--socket"; sock_path "foreign"; "--state-dir"; state6 ] ~log:log6
  in
  let rec wait_bounded n =
    match Unix.waitpid [ Unix.WNOHANG ] pid6 with
    | 0, _ when n > 0 ->
        Unix.sleepf 0.05;
        wait_bounded (n - 1)
    | 0, _ ->
        Unix.kill pid6 Sys.sigkill;
        ignore (Unix.waitpid [] pid6);
        None
    | _, Unix.WEXITED n -> Some n
    | _, _ -> Some (-1)
  in
  let status = wait_bounded 200 in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (read_file log6)) in
  (match (status, lines) with
  | Some 2, [ _ ] -> pass "foreign-format ledger refused with exit 2 and one line"
  | Some 2, _ ->
      fail "foreign ledger refusal printed %d lines, want 1" (List.length lines)
  | Some n, _ -> fail "daemon on a foreign ledger exited %d, want 2" n
  | None, _ -> fail "daemon started on a foreign-format ledger");

  (* ---- 7. one SAT engine -------------------------------------------- *)
  let sock7 = sock_path "satmode" and state7 = "smoke_state7" in
  let sub_with sat_mode =
    Protocol.
      {
        client = "golf";
        kind = Analyze;
        name = netlist_file;
        netlist = netlist_text;
        limits = Protocol.no_limits;
        static_filter = false;
        sat_mode;
        q_max = None;
        p1 = None;
      }
  in
  (* the ledger of a daemon that took a oneshot job J1 and died before
     running it *)
  if not (Sys.file_exists state7) then Sys.mkdir state7 0o755;
  Dfm_util.Journal.replace ~magic:"DFMLG01\n" (state7 ^ "/ledger.bin")
    [
      Dfm_serve.Wire.(
        to_string
          (Obj
             [
               ("rec", String "submit");
               ("job", String "J1");
               ( "sub",
                 String (Protocol.request_to_json (Protocol.Submit (sub_with (Some "oneshot"))))
               );
             ]));
    ];
  let pid7 = start_daemon exe ~sock:sock7 ~state:state7 ~log:"smoke_daemon7.log" in
  (match Client.connect sock7 with
  | Error e -> fail "sat-mode connect: %s" e
  | Ok c ->
      let rejection mode =
        match Client.request c (Protocol.Submit (sub_with (Some mode))) with
        | Ok (Protocol.Error_msg m)
          when contains m (Printf.sprintf "%S" mode) && not (String.contains m '\n') ->
            pass "sat_mode %S refused with one line naming it" mode;
            Some m
        | Ok (Protocol.Error_msg m) ->
            fail "sat_mode %S refusal does not name the value in one line: %s" mode m;
            None
        | Ok _ ->
            fail "sat_mode %S was accepted" mode;
            None
        | Error e ->
            fail "sat_mode %S submit: %s" mode e;
            None
      in
      let oneshot_msg = rejection "oneshot" in
      ignore (rejection "bogus" : string option);
      (match Client.await c "J1" with
      | Ok r when r.Protocol.r_outcome = "failed" && Some r.Protocol.r_report = oneshot_msg ->
          pass "ledger-recovered oneshot job failed with the submit refusal message"
      | Ok r ->
          fail "ledger-recovered oneshot job: outcome %s, detail %S" r.Protocol.r_outcome
            r.Protocol.r_report
      | Error e -> fail "await ledger-recovered job: %s" e);
      (match Client.submit_and_wait c (sub_with None) with
      | Ok r when r.Protocol.r_outcome = "done" ->
          pass "valid submit after the refusals completes done"
      | Ok r -> fail "valid submit after the refusals: outcome %s" r.Protocol.r_outcome
      | Error e -> fail "valid submit after the refusals: %s" e);
      Client.close c);
  stop_daemon ~sock:sock7 ~pid:pid7;

  if !failures > 0 then begin
    Printf.printf "serve_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "serve_smoke: all checks passed"
