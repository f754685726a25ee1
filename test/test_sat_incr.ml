(* Tests for the incremental assumption-based SAT core.

   Three layers of differential evidence:

   - Solver level: random CNF query batches run through an
     [Dfm_sat.Incremental] session (activation-guarded groups over one
     persistent solver) must answer exactly like a throwaway solver per
     query; after every solve the between-solve invariants hold
     ([Solver.check_invariants]) and every retained learnt clause is
     re-proved to be implied by the clauses added so far.

   - ATPG level: [Atpg.classify] / [generate] / [escalate] in Incremental
     mode must produce the same verdicts as Oneshot mode, at jobs 1 and 4,
     including after a region rewrite — and every incremental test pattern
     must be confirmed by the independent fault simulator.

   - Campaign level: the [sat.solve] failpoint kills a checkpointed
     campaign mid-incremental-session; the resume must be bit-identical to
     the uninterrupted run. *)

module Solver = Dfm_sat.Solver
module Incr = Dfm_sat.Incremental
module Metrics = Dfm_obs.Metrics
module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg
module Encode = Dfm_atpg.Encode
module Ls = Dfm_sim.Logic_sim
module Fs = Dfm_sim.Fault_sim
module Rng = Dfm_util.Rng
module Failpoint = Dfm_util.Failpoint
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Netlist_io = Dfm_netlist.Netlist_io

let lib = Dfm_cellmodel.Osu018.library
let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 }

(* ------------------------------------------------------------------ *)
(* Solver level: session fuzz against one-shot solving                 *)
(* ------------------------------------------------------------------ *)

let brute_sat nvars clauses =
  let rec try_assignment m =
    if m >= 1 lsl nvars then false
    else
      List.for_all
        (fun c ->
          List.exists
            (fun l ->
              let v = (m lsr (abs l - 1)) land 1 = 1 in
              if l > 0 then v else not v)
            c)
        clauses
      || try_assignment (m + 1)
  in
  try_assignment 0

(* A base CNF plus a list of query groups, all over the same variables. *)
let arb_session_problem =
  let print_clauses cs =
    String.concat " ; " (List.map (fun c -> String.concat " " (List.map string_of_int c)) cs)
  in
  QCheck.make
    ~print:(fun (n, base, groups) ->
      Printf.sprintf "n=%d base=[%s] groups=[%s]" n (print_clauses base)
        (String.concat " | " (List.map print_clauses groups)))
    QCheck.Gen.(
      int_range 2 8 >>= fun nvars ->
      let clause =
        list_size (int_range 1 3)
          (map (fun (v, s) -> if s then v + 1 else -(v + 1)) (pair (int_bound (nvars - 1)) bool))
      in
      triple (return nvars)
        (list_size (int_range 0 10) clause)
        (list_size (int_range 1 6) (list_size (int_range 1 8) clause)))

(* Re-prove a learnt clause: CNF-so-far /\ not(C) must be UNSAT. *)
let check_learnts_implied all_clauses solver =
  let learnts = Solver.learnt_clauses solver in
  let checked = ref 0 in
  List.iter
    (fun c ->
      if !checked < 50 then begin
        incr checked;
        let s = Solver.create () in
        Solver.ensure_vars s (Solver.num_vars solver);
        List.iter (Solver.add_clause s) all_clauses;
        List.iter (fun l -> Solver.add_clause s [ -l ]) c;
        if Solver.solve s <> Solver.Unsat then
          QCheck.Test.fail_reportf "learnt clause [%s] is not implied by the CNF"
            (String.concat " " (List.map string_of_int c))
      end)
    learnts;
  true

let prop_session_matches_oneshot =
  QCheck.Test.make ~name:"incremental session answers = one-shot per query" ~count:100
    arb_session_problem (fun (nvars, base, groups) ->
      let sess = Incr.create () in
      let solver = Incr.solver sess in
      Solver.ensure_vars solver nvars;
      (* every clause in solver numbering, for the learnt implication check *)
      let all_clauses = ref [] in
      List.iter
        (fun c ->
          Incr.add_permanent sess c;
          all_clauses := c :: !all_clauses)
        base;
      List.iter
        (fun group ->
          let act = Incr.new_activation sess in
          List.iter
            (fun c ->
              Incr.add_guarded sess ~act c;
              all_clauses := (-act :: c) :: !all_clauses)
            group;
          let r = Incr.solve sess ~act in
          Solver.check_invariants solver;
          (* one-shot reference: base /\ group, nothing else (earlier
             groups' guards are free, so they are invisible) *)
          let expect = brute_sat nvars (base @ group) in
          (match r with
          | Solver.Sat ->
              if not expect then QCheck.Test.fail_report "session Sat, brute force Unsat";
              (* the model must satisfy base and group, with act assumed *)
              if not (Solver.lit_value solver act) then
                QCheck.Test.fail_report "assumed activation false in model";
              List.iter
                (fun c ->
                  if not (List.exists (Solver.lit_value solver) c) then
                    QCheck.Test.fail_report "model violates an active clause")
                (base @ group)
          | Solver.Unsat ->
              if expect then QCheck.Test.fail_report "session Unsat, brute force Sat";
              (* the activation must be among the failed assumptions unless
                 the permanent CNF is itself unsatisfiable *)
              let failed = Solver.failed_assumptions solver in
              if not (List.for_all (fun l -> l = act) failed) then
                QCheck.Test.fail_report "failed assumptions outside the assumed set"
          | Solver.Unknown -> QCheck.Test.fail_report "unbounded solve returned Unknown");
          ())
        groups;
      check_learnts_implied !all_clauses solver)

let prop_failed_assumptions =
  QCheck.Test.make ~name:"failed assumptions are a valid unsat core" ~count:150
    arb_session_problem (fun (nvars, base, groups) ->
      let clauses = base @ List.concat groups in
      let s = Solver.create () in
      Solver.ensure_vars s nvars;
      List.iter (Solver.add_clause s) clauses;
      (* assume a sign for every other variable *)
      let assumptions =
        List.init nvars (fun i -> i + 1)
        |> List.filteri (fun i _ -> i mod 2 = 0)
        |> List.map (fun v -> if v mod 4 = 1 then v else -v)
      in
      let r = Solver.solve ~assumptions s in
      Solver.check_invariants s;
      (match r with
      | Solver.Sat ->
          List.iter
            (fun l ->
              if not (Solver.lit_value s l) then
                QCheck.Test.fail_report "Sat model contradicts an assumption")
            assumptions
      | Solver.Unsat ->
          let failed = Solver.failed_assumptions s in
          List.iter
            (fun l ->
              if not (List.mem l assumptions) then
                QCheck.Test.fail_report "failed assumption not among the assumed")
            failed;
          (* the failed subset alone must already be contradicted *)
          if Solver.solve ~assumptions:failed s <> Solver.Unsat then
            QCheck.Test.fail_report "failed-assumption subset is not an unsat core"
      | Solver.Unknown -> QCheck.Test.fail_report "unbounded solve returned Unknown");
      Solver.check_invariants s;
      true)

let test_retire_semantics () =
  let sess = Incr.create () in
  let solver = Incr.solver sess in
  Solver.ensure_vars solver 2;
  Incr.add_permanent sess [ 1; 2 ];
  let act1 = Incr.new_activation sess in
  Incr.add_guarded sess ~act:act1 [ -1 ];
  Incr.add_guarded sess ~act:act1 [ -2 ];
  Alcotest.(check bool) "group 1 contradicts the base" true
    (Incr.solve sess ~act:act1 = Solver.Unsat);
  Alcotest.(check bool) "activation in the failed set" true
    (List.mem act1 (Solver.failed_assumptions solver));
  let act2 = Incr.new_activation sess in
  Incr.add_guarded sess ~act:act2 [ 1 ];
  Alcotest.(check bool) "group 2 solvable" true (Incr.solve sess ~act:act2 = Solver.Sat);
  Incr.retire sess ~act:act1 ~locals:[];
  Solver.check_invariants solver;
  Alcotest.(check bool) "group 2 unaffected by the retirement" true
    (Incr.solve sess ~act:act2 = Solver.Sat);
  (* the retired activation is permanently off: assuming it is contradictory *)
  Alcotest.(check bool) "retired group cannot be reactivated" true
    (Incr.solve sess ~act:act1 = Solver.Unsat);
  let st = Incr.stats sess in
  Alcotest.(check int) "activations" 2 st.Incr.activations;
  Alcotest.(check int) "retired" 1 st.Incr.retired;
  Alcotest.(check int) "solves" 4 st.Incr.solves;
  Alcotest.(check bool) "clause reuse accumulates" true (st.Incr.clauses_reused > 0)

(* A long session must not accumulate dead clauses: every retired query's
   clauses are swept at the next solve, and lazily deleted entries are
   compacted under a bound proportional to the live database.  5,000
   guarded queries over one small planted-satisfiable CNF add 15,000
   clauses.  After every solve the live database must stay that of the
   base CNF plus one query, and [check_invariants] must find the dead
   entries of every store within the compaction bound — so what the
   solver holds cannot grow with the number of queries retired. *)
let test_long_session_bounded () =
  let rng = Rng.create 20260 in
  let nbase = 12 in
  let planted = Array.init (nbase + 1) (fun _ -> Rng.bool rng) in
  let lit () =
    let v = 1 + Rng.int rng nbase in
    if Rng.bool rng then v else -v
  in
  let agrees l = planted.(abs l) = (l > 0) in
  let rec base_clause () =
    let c = [ lit (); lit (); lit () ] in
    if List.exists agrees c then c else base_clause ()
  in
  let sess = Incr.create () in
  let solver = Incr.solver sess in
  Solver.ensure_vars solver nbase;
  let n_base = 24 in
  for _ = 1 to n_base do
    Incr.add_permanent sess (base_clause ())
  done;
  for q = 1 to 5000 do
    let act = Incr.new_activation sess in
    let x = Solver.new_var solver in
    Incr.add_guarded sess ~act [ x; lit (); lit () ];
    Incr.add_guarded sess ~act [ -x; lit () ];
    Incr.add_guarded sess ~act [ -x; lit (); lit () ];
    (match Incr.solve sess ~act with
    | Solver.Sat | Solver.Unsat -> ()
    | Solver.Unknown -> Alcotest.fail "unbounded solve returned Unknown");
    Solver.check_invariants solver;
    if Solver.num_clauses solver > n_base + 3 then
      Alcotest.failf "query %d: %d live clauses, retired groups not swept" q
        (Solver.num_clauses solver);
    if Solver.num_learnts solver > 200 then
      Alcotest.failf "query %d: %d live learnt clauses" q (Solver.num_learnts solver);
    Incr.retire sess ~act ~locals:[ x ]
  done

let test_session_metrics () =
  let m_act = Metrics.counter "dfm_sat_incr_activations_total" in
  let m_solves = Metrics.counter "dfm_sat_incr_solves_total" in
  let m_retired = Metrics.counter "dfm_sat_incr_retired_total" in
  let a0 = Metrics.counter_value m_act
  and s0 = Metrics.counter_value m_solves
  and r0 = Metrics.counter_value m_retired in
  let sess = Incr.create () in
  let act = Incr.new_activation sess in
  Incr.add_guarded sess ~act [ 1; 2 ];
  ignore (Incr.solve sess ~act : Solver.result);
  Incr.retire sess ~act ~locals:[ 1; 2 ];
  Alcotest.(check int) "activation counted" (a0 + 1) (Metrics.counter_value m_act);
  Alcotest.(check int) "solve counted" (s0 + 1) (Metrics.counter_value m_solves);
  Alcotest.(check int) "retirement counted" (r0 + 1) (Metrics.counter_value m_retired)

let test_pool_fifo () =
  (match Incr.create_pool ~max_sessions:0 () with
  | _ -> Alcotest.fail "capacity 0 must be refused"
  | exception Invalid_argument _ -> ());
  let p : string Incr.pool = Incr.create_pool ~max_sessions:2 () in
  Alcotest.(check bool) "miss on empty pool" true (Incr.find_session p ~key:1L = None);
  Incr.add_session p ~key:1L (Incr.create ()) "one";
  Incr.add_session p ~key:2L (Incr.create ()) "two";
  (match Incr.find_session p ~key:1L with
  | Some (_, "one") -> ()
  | _ -> Alcotest.fail "payload of key 1 lost");
  (* FIFO: inserting a third evicts the oldest insertion (key 1) *)
  Incr.add_session p ~key:3L (Incr.create ()) "three";
  Alcotest.(check bool) "oldest evicted" true (Incr.find_session p ~key:1L = None);
  Alcotest.(check bool) "younger survives" true (Incr.find_session p ~key:2L <> None);
  Alcotest.(check bool) "newest present" true (Incr.find_session p ~key:3L <> None);
  let st = Incr.pool_stats p in
  Alcotest.(check int) "live" 2 st.Incr.live;
  Alcotest.(check int) "evictions" 1 st.Incr.evictions;
  Alcotest.(check int) "hits" 3 st.Incr.pool_hits;
  Alcotest.(check int) "misses" 2 st.Incr.pool_misses

(* ------------------------------------------------------------------ *)
(* ATPG level: mode differential                                       *)
(* ------------------------------------------------------------------ *)

let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"rand" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells = [| "INVX1"; "NAND2X1"; "NOR2X1"; "XOR2X1"; "AOI21X1"; "OAI21X1" |] in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = Rng.pick rng cells in
    let c = Dfm_netlist.Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 3 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

let all_faults nl =
  let faults = ref [] in
  let id = ref 0 in
  let add kind =
    faults := { F.fault_id = !id; kind; origin } :: !faults;
    incr id
  in
  Array.iter
    (fun (nn : N.net) ->
      List.iter (fun pol -> add (F.Stuck (F.On_net nn.N.net_id, pol))) [ F.Sa0; F.Sa1 ];
      List.iter
        (fun tr -> add (F.Transition (F.On_net nn.N.net_id, tr)))
        [ F.Slow_to_rise; F.Slow_to_fall ])
    nl.N.nets;
  Array.iteri
    (fun gid (g : N.gate) ->
      Array.iteri
        (fun pin _ ->
          List.iter (fun pol -> add (F.Stuck (F.On_pin (gid, pin), pol))) [ F.Sa0; F.Sa1 ])
        g.N.fanins;
      let u = Dfm_cellmodel.Udfm.for_cell g.N.cell.Cell.name in
      List.iteri
        (fun entry_idx _ -> if entry_idx < 4 then add (F.Internal (gid, entry_idx)))
        u.Dfm_cellmodel.Udfm.entries)
    nl.N.gates;
  Array.of_list (List.rev !faults)

let counts_sans_sat_queries (c : Atpg.counts) =
  ( c.Atpg.total,
    c.Atpg.detected,
    c.Atpg.undetectable,
    c.Atpg.aborted,
    c.Atpg.undetectable_internal,
    c.Atpg.undetectable_external )

let same_classification name (a : Atpg.classification) (b : Atpg.classification) =
  Alcotest.(check bool) (name ^ ": statuses identical") true (a.Atpg.status = b.Atpg.status);
  Alcotest.(check bool) (name ^ ": counts identical") true (a.Atpg.counts = b.Atpg.counts)

let prop_modes_agree =
  QCheck.Test.make ~name:"incremental = oneshot verdicts at jobs 1 and 4" ~count:6
    QCheck.(pair (int_range 1 100000) (int_range 6 18))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let faults = all_faults nl in
      let one = Atpg.classify ~jobs:1 ~sat_mode:Atpg.Oneshot nl faults in
      let inc1 = Atpg.classify ~jobs:1 ~sat_mode:Atpg.Incremental nl faults in
      let inc4 = Atpg.classify ~jobs:4 ~sat_mode:Atpg.Incremental nl faults in
      one.Atpg.status = inc1.Atpg.status
      && one.Atpg.counts = inc1.Atpg.counts
      && inc1.Atpg.status = inc4.Atpg.status
      && inc1.Atpg.counts = inc4.Atpg.counts)

(* The resynthesis loop's central move is a region rewrite; the mode
   identity must survive it. *)
let prop_modes_agree_after_replace =
  QCheck.Test.make ~name:"mode identity survives a region rewrite" ~count:4
    QCheck.(pair (int_range 1 100000) (int_range 10 20))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let comb = N.comb_gates nl in
      QCheck.assume (List.length comb >= 2);
      let rng = Rng.create (seed lxor 0x5A7) in
      let region =
        List.filteri (fun i _ -> i < 1 + Rng.int rng 3) (List.map (fun g -> g.N.gate_id) comb)
      in
      let nl' =
        try Dfm_synth.Convert.remap_region ~goal:`Area ~sweep:true nl ~gates:region ~library:lib
        with Dfm_synth.Mapper.Unmappable _ -> nl
      in
      let faults = all_faults nl' in
      let one = Atpg.classify ~jobs:1 ~sat_mode:Atpg.Oneshot nl' faults in
      let inc1 = Atpg.classify ~jobs:1 ~sat_mode:Atpg.Incremental nl' faults in
      let inc4 = Atpg.classify ~jobs:4 ~sat_mode:Atpg.Incremental nl' faults in
      one.Atpg.status = inc1.Atpg.status
      && one.Atpg.counts = inc1.Atpg.counts
      && inc1.Atpg.status = inc4.Atpg.status
      && inc1.Atpg.counts = inc4.Atpg.counts)

(* [generate] in both modes: same verdicts, zero simulator disagreements,
   and the incremental test set replayed through the independent fault
   simulator must cover every fault classified Detected.  (The patterns
   themselves may differ between modes — only their validity is promised.) *)
let test_generate_modes () =
  let nl = random_netlist 42 5 12 in
  let faults = all_faults nl in
  let g_one = Atpg.generate ~sat_mode:Atpg.Oneshot nl faults in
  let g_inc = Atpg.generate ~sat_mode:Atpg.Incremental nl faults in
  (* patterns (and hence fault-dropping order, hence [sat_queries]) may
     differ between modes; the verdicts may not *)
  Alcotest.(check bool) "generate: statuses identical" true
    (g_one.Atpg.classification.Atpg.status = g_inc.Atpg.classification.Atpg.status);
  Alcotest.(check bool) "generate: counts identical modulo sat_queries" true
    (counts_sans_sat_queries g_one.Atpg.classification.Atpg.counts
    = counts_sans_sat_queries g_inc.Atpg.classification.Atpg.counts);
  Alcotest.(check int) "oneshot cross-check clean" 0 g_one.Atpg.cross_check_failures;
  Alcotest.(check int) "incremental cross-check clean" 0 g_inc.Atpg.cross_check_failures;
  let ls = Ls.prepare nl in
  let fs = Fs.prepare nl in
  let detected = Array.make (Array.length faults) false in
  let init_seen = Array.make (Array.length faults) false in
  let stuck_seen = Array.make (Array.length faults) false in
  List.iter
    (fun pattern ->
      let good = Ls.run ls (Ls.words_of_pattern pattern) in
      Array.iteri
        (fun fid f ->
          match f.F.kind with
          | F.Transition _ ->
              if Fs.detect_word fs ~good f <> 0L then stuck_seen.(fid) <- true;
              if Fs.init_word fs ~good f <> 0L then init_seen.(fid) <- true;
              if stuck_seen.(fid) && init_seen.(fid) then detected.(fid) <- true
          | _ -> if Fs.detect_word fs ~good f <> 0L then detected.(fid) <- true)
        faults)
    g_inc.Atpg.tests;
  Array.iteri
    (fun fid st ->
      if st = Atpg.Detected then
        Alcotest.(check bool)
          (Printf.sprintf "fault %d covered by incremental tests" fid)
          true detected.(fid))
    g_inc.Atpg.classification.Atpg.status

(* Escalation ladders in both modes: semantic verdicts of faults resolved
   by both agree, and the per-rung abort counts stay monotone. *)
let prop_escalate_modes_agree =
  QCheck.Test.make ~name:"escalation verdicts mode-independent" ~count:4
    QCheck.(pair (int_range 1 100000) (int_range 18 28))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let faults = all_faults nl in
      let run mode =
        let cls = Atpg.classify ~jobs:1 ~max_conflicts:1 ~sat_mode:mode nl faults in
        Atpg.escalate ~sat_mode:mode ~max_conflicts:1 nl faults cls
      in
      let cls_one, st_one = run Atpg.Oneshot in
      let cls_inc, st_inc = run Atpg.Incremental in
      let monotone = function
        | [] -> true
        | l -> List.for_all2 ( >= ) l (List.tl l @ [ 0 ])
      in
      if not (monotone st_one.Atpg.aborted_per_rung && monotone st_inc.Atpg.aborted_per_rung)
      then QCheck.Test.fail_report "aborted_per_rung not monotone";
      Array.iteri
        (fun i a ->
          let b = cls_inc.Atpg.status.(i) in
          match (a, b) with
          | Atpg.Aborted, _ | _, Atpg.Aborted -> ()
          | a, b ->
              if a <> b then
                QCheck.Test.fail_reportf "fault %d: oneshot and incremental disagree" i)
        cls_one.Atpg.status;
      true)

(* ------------------------------------------------------------------ *)
(* Encode sessions: invariants, pattern validity, budget re-solve       *)
(* ------------------------------------------------------------------ *)

let verdict_kind = function
  | Encode.Tests _ -> `Tests
  | Encode.Undetectable -> `Undetectable
  | Encode.Unknown -> `Unknown

let test_encode_session_invariants () =
  let nl = random_netlist 42 4 12 in
  let ls = Ls.prepare nl in
  let fs = Fs.prepare nl in
  let sess = Encode.make_session ls in
  Array.iter
    (fun f ->
      let v_inc = Encode.check_incr sess f in
      Solver.check_invariants (Encode.session_solver sess);
      let v_one = Encode.check ls f in
      Alcotest.(check bool)
        (Printf.sprintf "fault %d verdict kind" f.F.fault_id)
        true
        (verdict_kind v_inc = verdict_kind v_one);
      match v_inc with
      | Encode.Tests ts ->
          (* every pattern from the shared session must actually work *)
          let works test_of_word =
            List.exists
              (fun (t : Encode.test) ->
                let good = Ls.run ls (Ls.words_of_pattern t.Encode.values) in
                test_of_word ~good f <> 0L)
              ts
          in
          (match f.F.kind with
          | F.Transition _ ->
              Alcotest.(check bool)
                (Printf.sprintf "fault %d init covered" f.F.fault_id)
                true (works (Fs.init_word fs));
              Alcotest.(check bool)
                (Printf.sprintf "fault %d detect covered" f.F.fault_id)
                true (works (Fs.detect_word fs))
          | _ ->
              Alcotest.(check bool)
                (Printf.sprintf "fault %d detected by its pattern" f.F.fault_id)
                true (works (Fs.detect_word fs)))
      | Encode.Undetectable | Encode.Unknown -> ())
    (all_faults nl);
  Alcotest.(check int) "no pending parts at unbounded budget" 0 (Encode.pending_parts sess);
  let st = Encode.session_stats sess in
  Alcotest.(check bool) "session saw work" true (st.Incr.activations > 0);
  Alcotest.(check int) "every activation group retired or a live shared cone"
    st.Incr.activations
    (st.Incr.retired + Encode.live_cones sess)

(* A budget-exhausted query stays pending and a later re-check of the same
   fault resolves it in place — without disturbing the mode identity. *)
let test_encode_budget_re_solve () =
  let nl = random_netlist 9 4 26 in
  let ls = Ls.prepare nl in
  let sess = Encode.make_session ls in
  let faults = all_faults nl in
  let unknowns = ref [] in
  Array.iter
    (fun f ->
      match Encode.check_incr ~max_conflicts:1 sess f with
      | Encode.Unknown -> unknowns := f :: !unknowns
      | Encode.Tests _ | Encode.Undetectable -> ())
    faults;
  Alcotest.(check bool) "pending parts iff unknown verdicts" true
    ((Encode.pending_parts sess > 0) = (!unknowns <> []));
  (* the same session resolves them at full budget, matching one-shot *)
  List.iter
    (fun f ->
      let v = Encode.check_incr sess f in
      Solver.check_invariants (Encode.session_solver sess);
      Alcotest.(check bool)
        (Printf.sprintf "fault %d re-solve matches one-shot" f.F.fault_id)
        true
        (verdict_kind v = verdict_kind (Encode.check ls f)))
    !unknowns;
  Alcotest.(check int) "re-solve drained the pending set" 0 (Encode.pending_parts sess)

(* ------------------------------------------------------------------ *)
(* Static filter interplay                                             *)
(* ------------------------------------------------------------------ *)

(* n2 = NAND(a, not a) is constant 1: Sa1/STR/STF on it are undetectable. *)
let redundant_circuit () =
  let b = B.create ~name:"redund" lib in
  let a = B.add_pi b "a" in
  let c = B.add_pi b "c" in
  let n1 = B.add_gate b ~cell:"INVX1" [| a |] in
  let n2 = B.add_gate b ~cell:"NAND2X1" [| a; n1 |] in
  let n3 = B.add_gate b ~cell:"NAND2X1" [| n2; c |] in
  B.mark_po b "y" n3;
  B.finish b

let test_static_filter_never_encoded () =
  let nl = redundant_circuit () in
  let faults = all_faults nl in
  let m_act = Metrics.counter "dfm_sat_incr_activations_total" in
  let m_filtered = Metrics.counter "dfm_atpg_static_filtered_total" in
  let a0 = Metrics.counter_value m_act in
  let plain = Atpg.classify ~jobs:1 ~sat_mode:Atpg.Incremental nl faults in
  let plain_acts = Metrics.counter_value m_act - a0 in
  (* a sound filter by construction: exactly the SAT-proven undetectables *)
  let filter f = plain.Atpg.status.(f.F.fault_id) = Atpg.Undetectable in
  let n_filtered = Array.length (Array.of_seq (Seq.filter filter (Array.to_seq faults))) in
  Alcotest.(check bool) "circuit has undetectable faults" true (n_filtered > 0);
  let a1 = Metrics.counter_value m_act in
  let f1 = Metrics.counter_value m_filtered in
  let filtered =
    Atpg.classify ~jobs:1 ~static_filter:filter ~sat_mode:Atpg.Incremental nl faults
  in
  let filtered_acts = Metrics.counter_value m_act - a1 in
  Alcotest.(check int) "filtered-faults metric is exact" (f1 + n_filtered)
    (Metrics.counter_value m_filtered);
  Alcotest.(check bool) "statuses unchanged by the filter" true
    (plain.Atpg.status = filtered.Atpg.status);
  (* undetectable faults always reach the SAT phase, so the query saving
     is exactly the filtered count *)
  Alcotest.(check int) "sat_queries accounting is exact"
    (plain.Atpg.counts.Atpg.sat_queries - n_filtered)
    filtered.Atpg.counts.Atpg.sat_queries;
  (* each filtered fault would have cost >= 1 activation group: none of
     them may be encoded into the persistent session *)
  Alcotest.(check bool) "filtered faults never encoded" true
    (plain_acts - filtered_acts >= n_filtered);
  let filtered4 =
    Atpg.classify ~jobs:4 ~static_filter:filter ~sat_mode:Atpg.Incremental nl faults
  in
  same_classification "filtered jobs=4" filtered filtered4

(* ------------------------------------------------------------------ *)
(* Failpoint: sat.solve site, kill/resume mid-session                  *)
(* ------------------------------------------------------------------ *)

let test_sat_solve_failpoint () =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  let nl = random_netlist 7 4 10 in
  let faults = all_faults nl in
  let r_ref = Atpg.classify ~jobs:1 ~sat_mode:Atpg.Incremental nl faults in
  Failpoint.enable ~after:3 "sat.solve" Failpoint.Raise;
  (match Atpg.classify ~jobs:1 ~sat_mode:Atpg.Incremental nl faults with
  | _ -> Alcotest.fail "armed sat.solve site never fired"
  | exception Failpoint.Injected _ -> ());
  Alcotest.(check bool) "site counted hits" true (Failpoint.hit_count "sat.solve" > 3);
  Failpoint.clear ();
  let r = Atpg.classify ~jobs:1 ~sat_mode:Atpg.Incremental nl faults in
  same_classification "after the injected crash" r_ref r

(* Kill a checkpointed campaign via the sat.solve site — mid-flight of a
   persistent incremental session, possibly inside a worker domain — and
   demand that the resume reproduces the uninterrupted run bit for bit. *)
let test_kill_resume_mid_sat_session () =
  let fresh_path () =
    let p = Filename.temp_file "dfm_sat_ckpt" ".ckpt" in
    Sys.remove p;
    p
  in
  Failpoint.clear ();
  let nl = Dfm_circuits.Circuits.build ~scale:0.25 "sparc_ffu" in
  let d0 = Design.implement nl in
  (* reference: uninterrupted checkpointed run, counting sat.solve hits *)
  let path_ref = fresh_path () in
  Failpoint.enable ~after:max_int "sat.solve" Failpoint.Raise;
  let r_ref = Resynth.run ~checkpoint:{ Resynth.path = path_ref; resume = false } d0 in
  let solves = Failpoint.hit_count "sat.solve" in
  Failpoint.clear ();
  Sys.remove path_ref;
  Alcotest.(check bool) "campaign issues SAT solves" true (solves > 0);
  let path = fresh_path () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  (* no [times] bound: every solve after the kill point raises, so worker
     retries and the sequential fallback die too and the campaign aborts *)
  Failpoint.enable ~after:(solves / 2) "sat.solve" Failpoint.Raise;
  (match Resynth.run ~checkpoint:{ Resynth.path; resume = false } d0 with
  | _ -> Alcotest.fail "kill point never fired"
  | exception Failpoint.Injected _ -> ());
  Failpoint.clear ();
  let r = Resynth.run ~checkpoint:{ Resynth.path; resume = true } d0 in
  Alcotest.(check string) "final netlist identical"
    (Netlist_io.to_string r_ref.Resynth.final.Design.netlist)
    (Netlist_io.to_string r.Resynth.final.Design.netlist);
  Alcotest.(check bool) "trace identical" true (r.Resynth.trace = r_ref.Resynth.trace);
  Alcotest.(check int) "accepted" r_ref.Resynth.accepted r.Resynth.accepted;
  Alcotest.(check int) "implement calls" r_ref.Resynth.implement_calls
    r.Resynth.implement_calls;
  Alcotest.(check int) "SAT queries" r_ref.Resynth.sat_queries r.Resynth.sat_queries

(* ------------------------------------------------------------------ *)
(* Pinned search trajectory                                            *)
(* ------------------------------------------------------------------ *)

(* The solver's effort counters are an exact oracle for its search: a
   change to the solver's data structures that keeps every decision,
   propagation and conflict in the same order leaves these numbers
   untouched, while any drift in branching, propagation order, learning
   or variable numbering (cone construction) moves at least one of them.
   The constants were recorded with the list-based solver that preceded
   the flat watch arrays and the occurrence-index simplification.
   Certification re-checks run on uncounted solvers, so the certified run
   must spend exactly the same counted effort. *)
let pinned_trajectory =
  [
    ("sparc_ffu", (400, 2293, 6893, 46));
    ("tv80", (2293, 23601, 94060, 527));
  ]

let test_pinned_trajectory () =
  List.iter
    (fun (name, (conflicts, decisions, propagations, queries)) ->
      let nl = Dfm_circuits.Circuits.build ~scale:0.25 name in
      let d = Design.implement ~jobs:1 nl in
      let faults = d.Design.fault_list.Dfm_guidelines.Translate.faults in
      List.iter
        (fun certify ->
          let label = Printf.sprintf "%s%s" name (if certify then " certified" else "") in
          let c0, d0, p0 = Solver.totals () in
          let cls = Atpg.classify ~seed:3 ~jobs:1 ~certify nl faults in
          let c1, d1, p1 = Solver.totals () in
          Alcotest.(check int) (label ^ ": conflicts") conflicts (c1 - c0);
          Alcotest.(check int) (label ^ ": decisions") decisions (d1 - d0);
          Alcotest.(check int) (label ^ ": propagations") propagations (p1 - p0);
          Alcotest.(check int) (label ^ ": SAT queries") queries
            cls.Atpg.counts.Atpg.sat_queries)
        [ false; true ])
    pinned_trajectory

let suite =
  [
    QCheck_alcotest.to_alcotest prop_session_matches_oneshot;
    QCheck_alcotest.to_alcotest prop_failed_assumptions;
    Alcotest.test_case "retire semantics" `Quick test_retire_semantics;
    Alcotest.test_case "long session stays bounded" `Quick test_long_session_bounded;
    Alcotest.test_case "session metrics" `Quick test_session_metrics;
    Alcotest.test_case "pool FIFO" `Quick test_pool_fifo;
    QCheck_alcotest.to_alcotest prop_modes_agree;
    QCheck_alcotest.to_alcotest prop_modes_agree_after_replace;
    Alcotest.test_case "generate in both modes" `Quick test_generate_modes;
    QCheck_alcotest.to_alcotest prop_escalate_modes_agree;
    Alcotest.test_case "encode session invariants" `Quick test_encode_session_invariants;
    Alcotest.test_case "budget re-solve in one session" `Quick test_encode_budget_re_solve;
    Alcotest.test_case "static filter never encoded" `Quick test_static_filter_never_encoded;
    Alcotest.test_case "sat.solve failpoint" `Quick test_sat_solve_failpoint;
    Alcotest.test_case "kill/resume mid SAT session" `Slow test_kill_resume_mid_sat_session;
    Alcotest.test_case "pinned search trajectory" `Quick test_pinned_trajectory;
  ]
