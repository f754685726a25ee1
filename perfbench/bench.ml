(* The benchmark: four seeded workloads driven through the engines' public
   entry points (Design.implement, Resynth.run, Report.table2_rows,
   Equiv_sat.check, and the serve Client protocol), every output checked.

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 is a separate run: it wraps the benchmark's own calls into
   each layer in Dfm_obs spans, collects the program's spans in the same
   buffers, reads the counters the layers export, and reports per-layer
   metrics.  The last line of stdout is the JSON result. *)

module Design = Dfm_core.Design
module Report = Dfm_core.Report
module Resynth = Dfm_core.Resynth
module Cluster = Dfm_core.Cluster
module Atpg = Dfm_atpg.Atpg
module Span = Dfm_obs.Span
module Metrics = Dfm_obs.Metrics
module Client = Dfm_serve.Client
module P = Dfm_serve.Protocol
module Wire = Dfm_serve.Wire

(* Engine workloads classify on two worker domains (the machine the
   benchmark was sized on has two cores). *)
let jobs = 2

(* Serve load: one open loop at a fixed rate, judged against a fixed p95
   limit; the ladder that finds the highest sustainable rate is fixed too.
   None of these adapt at run time. *)
let serve_rate = 3.0
let serve_limit_ms = 1000.0
let serve_ladder = [ 3.0; 5.0; 8.0; 10.0; 15.0 ]
let serve_scale = 0.25
let serve_blocks = [ "sparc_ffu"; "sparc_spu"; "tv80"; "wb_conmax" ]

(* The blocks whose cold jobs the load includes: the two smallest, whose
   cold certified analysis takes about 0.2 s.  Cold tv80 and wb_conmax
   take 1-1.5 s, would dominate every figure and overload the daemon. *)
let serve_cold_blocks = [ "sparc_ffu"; "sparc_spu" ]

(* Cold jobs per window of one warm job of every block. *)
let serve_cold_per_window = 2

(* The end-to-end run's load is split in this many segments, with the
   machine-speed kernel run between them. *)
let serve_segments = 8

(* Set-up is repeated this many times per run; setup_s is the median. *)
let setup_reps = 5

(* Traces and daemon state, inside the source tree (git-ignored). *)
let run_dir = ".perfbench"

let now = Unix.gettimeofday

(* ---------- arguments ---------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  rev : string;
  digest : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and cli = ref "" and rev = ref "unknown" and digest = ref "unknown" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME analyze-sat|analyze-layout|resynth|serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--cli", Arg.Set_string cli, "PATH dfm_resynth_cli executable (serve workload)");
      ("--rev", Arg.Set_string rev, "REV source revision for the run record");
      ("--digest", Arg.Set_string digest, "HEX source digest for the run record");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  if !seconds <= 0.0 then raise (Arg.Bad "--seconds must be positive");
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    cli = !cli;
    rev = !rev;
    digest = !digest;
  }

(* ---------- outcome accounting ---------- *)

let attempted = ref 0
let failed = ref 0

(* One operation: counted as attempted, and as failed when it raises or
   any of its output checks reports a problem. *)
let op name f =
  incr attempted;
  match f () with
  | [] -> ()
  | problems ->
      incr failed;
      List.iter (fun p -> Printf.printf "FAIL %s: %s\n%!" name p) problems
  | exception e ->
      incr failed;
      Printf.printf "FAIL %s: %s\n%!" name (Printexc.to_string e)

(* ---------- metrics ---------- *)

type metric = { name : string; unit_ : string; value : float; n : int }

let metric name unit_ ?(n = 1) value = { name; unit_; value; n }

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> kb /. 1024.0)
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) go

(* ---------- spans ---------- *)

let drained = ref []

let drain () = drained := List.rev_append (Span.drain ()) !drained

let to_stats_span (e : Span.event) =
  {
    Stats.name = e.Span.name;
    tid = e.Span.tid;
    depth = e.Span.depth;
    bseq = e.Span.begin_seq;
    eseq = e.Span.end_seq;
    dur = Int64.to_float (Int64.sub e.Span.end_ns e.Span.begin_ns) /. 1e9;
  }

let span_total spans name =
  List.fold_left (fun acc s -> if s.Stats.name = name then acc +. s.Stats.dur else acc) 0.0 spans

(* The benchmark's own operation spans are named "op.*". *)
let is_op name = String.length name > 3 && String.sub name 0 3 = "op."

(* Spans that group work rather than name a layer.  Time whose innermost
   span is one of these is not attributed to any layer. *)
let composite name =
  is_op name || List.mem name [ "implement"; "campaign"; "phase"; "q-step"; "candidate" ]

let unattributed_frac spans =
  let self = Stats.self_by_name spans in
  let glue = Hashtbl.fold (fun k v acc -> if composite k then acc +. v else acc) self 0.0 in
  let total =
    List.fold_left
      (fun acc s -> if s.Stats.depth = 0 && is_op s.Stats.name then acc +. s.Stats.dur else acc)
      0.0 spans
  in
  if total > 0.0 then glue /. total else 0.0

let write_trace args events =
  let path =
    Filename.concat run_dir (Printf.sprintf "trace_%s_%d.json" args.workload args.seed)
  in
  Dfm_obs.Export.write_chrome_trace path events;
  Printf.printf "trace: %s (%d spans, %d dropped)\n" path (List.length events) (Span.dropped ())

(* Process-wide effort counters, delta'd around the calls they describe. *)
type effort = { sat_s : float; queries : int; conflicts : int; propagations : int }

let sat_queries_counter = Metrics.counter "dfm_atpg_sat_queries_total"

let effort () =
  let c, _, p = Dfm_sat.Solver.totals () in
  {
    sat_s = Atpg.sat_seconds ();
    queries = Metrics.counter_value sat_queries_counter;
    conflicts = c;
    propagations = p;
  }

let effort_since e0 =
  let e1 = effort () in
  {
    sat_s = e1.sat_s -. e0.sat_s;
    queries = e1.queries - e0.queries;
    conflicts = e1.conflicts - e0.conflicts;
    propagations = e1.propagations - e0.propagations;
  }

let add_effort a b =
  {
    sat_s = a.sat_s +. b.sat_s;
    queries = a.queries + b.queries;
    conflicts = a.conflicts + b.conflicts;
    propagations = a.propagations + b.propagations;
  }

let no_effort = { sat_s = 0.0; queries = 0; conflicts = 0; propagations = 0 }

let per q x = if q > 0 then x /. float_of_int q else 0.0

let sat_metrics ~n ~per_op e =
  let q = e.queries in
  [
    metric "atpg.sat_busy_s" "s" ~n (e.sat_s /. per_op);
    metric "atpg.sat_queries" "count" ~n (float_of_int q /. per_op);
    metric "atpg.sat_us_per_query" "us" ~n (per q (e.sat_s *. 1e6));
    metric "sat.conflicts_per_query" "count" ~n (per q (float_of_int e.conflicts));
    metric "sat.propagations_per_query" "count" ~n (per q (float_of_int e.propagations));
  ]

(* The metric names and units BENCHMARK.json declares under [key], in
   its order; the file is read from the root of the source tree. *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let entry m =
    match (Wire.str_field "name" m, Wire.str_field "unit" m) with
    | Some n, Some u -> (n, u)
    | _ -> failwith ("BENCHMARK.json: malformed entry under " ^ key)
  in
  match Result.map (Wire.member key) (Wire.parse text) with
  | Ok (Some (Wire.List l)) -> List.map entry l
  | Ok _ -> failwith ("BENCHMARK.json: no list " ^ key)
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

(* The declared metrics, in order, from what a run measured.  A per-layer
   metric the workload's calls never reach reads 0: that is the control
   reading the prediction table expects.  An end-to-end metric is never
   missing. *)
let reported ~trace measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m when m.unit_ = unit_ -> m
      | Some m -> failwith (Printf.sprintf "%s measured in %s, declared in %s" name m.unit_ unit_)
      | None when trace -> metric name unit_ ~n:0 0.0
      | None -> failwith ("end-to-end metric not measured: " ^ name))
    (declared (if trace then "per_layer" else "end_to_end"))

(* ---------- set-up ---------- *)

let build_blocks blocks =
  List.map (fun (name, scale) -> (name, scale, Dfm_circuits.Circuits.build ~scale name)) blocks

(* Brings up the worker pool and every lazily initialised engine table on
   a small block, so the first measured operation pays nothing extra. *)
let warm_up () =
  let nl = Dfm_circuits.Circuits.build ~scale:0.25 "sparc_ffu" in
  ignore (Design.implement ~jobs nl)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------- machine speed ----------

   The machine this benchmark was built on is shared: the same operation's
   wall time drifts by 20-30% over minutes as other tenants load it, and
   its CPU time drifts with it.  A fixed kernel that shares no code with
   the program (sorting, hashing and allocating in plain OCaml) slows down
   the same way.  So each timed interval sits between two kernel runs and
   is scaled by [reference_kernel_s / mean kernel time]: seconds at the
   machine speed at which the kernel takes [reference_kernel_s].  A change to the
   program moves the scaled time in full; a change in machine load mostly
   cancels.  Raw wall times are printed alongside. *)

let reference_kernel_s = 0.2

let kernel_work () =
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 6 do
    let a = Array.init 50_000 (fun _ -> Random.State.int rng 1_000_000) in
    Array.sort compare a;
    let h = Hashtbl.create 1024 in
    Array.iter (fun x -> Hashtbl.replace h x (x land 7)) a;
    let l = Hashtbl.fold (fun k v acc -> (k + v) :: acc) h [] in
    ignore (Sys.opaque_identity (List.length (List.rev l)))
  done

(* The kernel runs on [domains] domains: as many as the work it calibrates
   keeps busy, so it feels the loss of either core the way a parallel
   classification does. *)
let kernel ~domains =
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel_work) in
  kernel_work ();
  List.iter Domain.join others;
  now () -. t0

let kernel_times = ref []

(* The last kernel run, if nothing has run since: back-to-back operations
   share the kernel run between them. *)
let last_kernel = ref None

let run_kernel ~domains =
  let k = kernel ~domains in
  kernel_times := k :: !kernel_times;
  last_kernel := Some (now (), k);
  k

(* Machine speed relative to the reference, from the kernel runs just
   before and just after an interval. *)
let speed_between before after = 2.0 *. reference_kernel_s /. (before +. after)

(* [f ()] between two kernel runs and from a compacted heap (so the
   previous operation's garbage neither slows it nor lifts the peak RSS),
   with its wall time and its time at reference speed. *)
let scaled ~domains f =
  let before =
    match !last_kernel with
    | Some (t, k) when now () -. t < 0.1 -> k
    | _ -> run_kernel ~domains
  in
  Gc.compact ();
  let r, dt = timed f in
  let after = run_kernel ~domains in
  (r, dt, dt *. speed_between before after)

(* Repeat the set-up, keep the last result, and report the median time at
   reference speed.  Earlier results are released by [discard], outside
   the timing. *)
let repeated_setup ?(discard = ignore) f =
  let rec go i times =
    let r, _, dt = scaled ~domains:1 f in
    if i + 1 = setup_reps then (r, dt :: times)
    else begin
      discard r;
      go (i + 1) (dt :: times)
    end
  in
  let r, times = go 0 [] in
  (r, metric "setup_s" "s" ~n:setup_reps (Stats.median times))

(* The implement/resynth seeds of the engine workloads.  Campaign cost
   varies up to 2x between implement seeds of one block (the search takes
   a different path), so a run that measured one seed per block would
   gate on that seed, not on the program.  Every run therefore covers the
   whole pool of seeds; the workload seed fixes the order in which a pass
   visits the (block, seed) operations, and which of them the traced run
   breaks down by layer. *)
let shuffle rng a =
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done

let in_seed_order ~seed items =
  let a = Array.of_list items in
  shuffle (Random.State.make [| seed; 0x0bde |]) a;
  Array.to_list a

(* Run whole passes until the measured time is spent: a further pass
   starts only when the previous one says it still fits.  At least one. *)
let passes_for seconds pass =
  let t0 = now () in
  let rec go n =
    let dt = snd (timed pass) in
    if now () -. t0 +. dt <= seconds then go (n + 1) else n + 1
  in
  go 0

(* Per-block operation times, wall and at reference speed.  A workload's
   op_s is one operation of every block, each at its block's interquartile
   mean. *)
let block_times = Hashtbl.create 4

let record_time name ~wall ~at_ref =
  Hashtbl.replace block_times name
    ((wall, at_ref) :: Option.value ~default:[] (Hashtbl.find_opt block_times name))

let op_metrics () =
  let n = Hashtbl.fold (fun _ l acc -> acc + List.length l) block_times 0 in
  let sum pick = Hashtbl.fold (fun _ l acc -> acc +. Stats.iqm (List.map pick l)) block_times 0.0 in
  [
    metric "op_s" "s" ~n (sum snd);
    metric "op_wall_s" "s" ~n (sum fst);
    metric "kernel_s" "s" ~n:(List.length !kernel_times) (Stats.median !kernel_times);
  ]

(* The first [k] operations of each block in seed order. *)
let first_per_block k ops =
  let seen = Hashtbl.create 4 in
  List.filter
    (fun ((name, _, _), _) ->
      let c = Option.value ~default:0 (Hashtbl.find_opt seen name) in
      Hashtbl.replace seen name (c + 1);
      c < k)
    ops

(* ---------- analyze workloads ---------- *)

let counts_of (m : Design.metrics) =
  {
    Expected.f = m.Design.f;
    u = m.Design.u;
    u_in = m.Design.u_internal;
    u_ex = m.Design.u_external;
    smax = m.Design.s_max;
    gmax = m.Design.g_max;
  }

let pp_counts (c : Expected.counts) =
  Printf.sprintf "F=%d U=%d U_in=%d U_ex=%d Smax=%d Gmax=%d" c.Expected.f c.Expected.u
    c.Expected.u_in c.Expected.u_ex c.Expected.smax c.Expected.gmax

let certified_counts ~seed nl =
  counts_of (Design.metrics (Design.implement ~seed ~jobs ~certify:true nl))

(* The committed record for this input, or else a certified run of it
   (outside any timing), printed as an entry of expected.ml. *)
let reference ((name, scale, nl), seed) =
  match List.assoc_opt (name, scale, seed) Expected.analyze with
  | Some c -> c
  | None ->
      let c = certified_counts ~seed nl in
      Printf.printf
        "no record, certified run gives:\n\
        \    ((%S, %s, %d), { f = %d; u = %d; u_in = %d; u_ex = %d; smax = %d; gmax = %d });\n%!"
        name (string_of_float scale) seed c.Expected.f c.Expected.u c.Expected.u_in c.Expected.u_ex
        c.Expected.smax c.Expected.gmax;
      c

let check_design ~expect (d : Design.t) =
  let c = d.Design.classification.Atpg.counts in
  let got = counts_of (Design.metrics d) in
  List.concat
    [
      (if got <> expect then
         [ Printf.sprintf "verdict counts %s, expected %s" (pp_counts got) (pp_counts expect) ]
       else []);
      (if c.Atpg.detected + c.Atpg.undetectable <> c.Atpg.total then
         [ "detected + undetectable <> F" ]
       else []);
      (if c.Atpg.aborted <> 0 then [ Printf.sprintf "%d aborted verdicts" c.Atpg.aborted ] else []);
    ]

(* Design.implement composed stage by stage through the layers' public
   functions, each stage in its own span. *)
let staged ~seed nl =
  let floorplan = Span.with_ "bench.floorplan" (fun () -> Dfm_layout.Floorplan.create nl) in
  let placement = Span.with_ "bench.place" (fun () -> Dfm_layout.Place.place ~seed nl floorplan) in
  let routing = Span.with_ "bench.route" (fun () -> Dfm_layout.Route.route ~seed placement) in
  let timing, power =
    Span.with_ "bench.sta_power" (fun () ->
        let timing = Dfm_timing.Sta.analyze routing in
        (timing, Dfm_timing.Power.analyze ~seed routing))
  in
  let fault_list = Span.with_ "bench.translate" (fun () -> Dfm_guidelines.Translate.build routing) in
  let faults = fault_list.Dfm_guidelines.Translate.faults in
  let classification = Span.with_ "bench.classify" (fun () -> Atpg.classify ~seed ~jobs nl faults) in
  let cluster =
    Span.with_ "bench.cluster" (fun () ->
        Cluster.compute nl faults ~undetectable:(fun fid ->
            classification.Atpg.status.(fid) = Atpg.Undetectable))
  in
  {
    Design.netlist = nl;
    floorplan;
    placement;
    routing;
    timing;
    power;
    fault_list;
    classification;
    cluster;
    escalation = None;
  }

let analyze_blocks = function
  | "analyze-sat" -> [ ("wb_conmax", 1.0); ("aes_core", 1.0) ]
  | _ -> [ ("des_perf", 1.0) ]

(* One pass is about run_seconds on two cores. *)
let analyze_pool = function
  | "analyze-sat" -> [ 1; 2; 3; 4 ]
  | _ -> [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let run_analyze args =
  let blocks, setup =
    repeated_setup (fun () ->
        let b = build_blocks (analyze_blocks args.workload) in
        warm_up ();
        b)
  in
  let pool = analyze_pool args.workload in
  let ops =
    in_seed_order ~seed:args.seed (List.concat_map (fun b -> List.map (fun s -> (b, s)) pool) blocks)
  in
  let refs = List.map (fun o -> (o, reference o)) ops in
  let expect o = List.assq o refs in
  (* The kernel runs on as many domains as the operation keeps busy most
     of its time: parallel classification on analyze-sat, serial place and
     translate on analyze-layout. *)
  let domains = if args.workload = "analyze-sat" then jobs else 1 in
  let implement ((_, _, nl), seed) =
    scaled ~domains (fun () ->
        Span.with_ "op.implement" (fun () -> Design.implement ~seed ~jobs nl))
  in
  if not args.trace then begin
    let pass () =
      List.iter
        (fun o ->
          let (name, _, _), seed = o in
          op (Printf.sprintf "analyze %s seed %d" name seed) (fun () ->
              let d, wall, at_ref = implement o in
              record_time name ~wall ~at_ref;
              check_design ~expect:(expect o) d))
        ops
    in
    ignore (passes_for args.seconds pass);
    (setup :: metric "peak_rss_mb" "MB" (peak_rss_mb "self") :: op_metrics ())
  end
  else begin
    (* Two operations per block: implement untraced, then traced, then the
       same design stage by stage, then the classification again on one
       worker domain. *)
    let sample = first_per_block 2 ops in
    let untraced = List.map (fun o -> let _, dt, _ = implement o in dt) sample in
    Span.set_enabled true;
    Metrics.set_timing_enabled true;
    let sat = ref no_effort and sim_s = ref 0.0 and j1 = ref 0.0 and faults = ref 0 in
    let traced =
      List.map
        (fun (((name, _, nl), seed) as o) ->
          let reference, dt, _ = implement o in
          op (Printf.sprintf "staged analyze %s seed %d" name seed) (fun () ->
              let e0 = effort () in
              let d = Span.with_ "op.staged" (fun () -> staged ~seed nl) in
              sat := add_effort !sat (effort_since e0);
              let fl = d.Design.fault_list.Dfm_guidelines.Translate.faults in
              faults := !faults + Array.length fl;
              let s0 = Atpg.sat_seconds () in
              let _, t1 =
                timed (fun () ->
                    Span.with_ "op.classify_j1" (fun () -> Atpg.classify ~seed ~jobs:1 nl fl))
              in
              j1 := !j1 +. t1;
              sim_s := !sim_s +. (t1 -. (Atpg.sat_seconds () -. s0));
              drain ();
              (* The per-layer times describe the program only if the
                 staged composition computes what Design.implement does. *)
              (if Design.metrics d <> Design.metrics reference then
                 [ "staged metrics differ from Design.implement" ]
               else [])
              @ check_design ~expect:(expect o) d);
          dt)
        sample
    in
    Span.set_enabled false;
    let events = !drained in
    let spans = List.map to_stats_span events in
    (* per-layer figures are per round: one operation of every block *)
    let r = float_of_int (List.length sample / List.length blocks) in
    let n = List.length sample in
    let tot name = span_total spans name /. r in
    let classify = span_total spans "bench.classify" in
    write_trace args events;
    [
      metric "atpg.sim_s" "s" ~n (!sim_s /. r);
      metric "atpg.random_detect_frac" "ratio" ~n
        (per !faults (float_of_int (!faults - !sat.queries)));
      metric "atpg.classify_s" "s" ~n (classify /. r);
      metric "atpg.jobs2_speedup" "x" ~n (if classify > 0.0 then !j1 /. classify else 0.0);
      metric "layout.place_s" "s" ~n (tot "bench.place");
      metric "layout.route_s" "s" ~n (tot "bench.route");
      metric "dfm.translate_s" "s" ~n (tot "bench.translate");
      metric "dfm.faults" "count" ~n (float_of_int !faults /. r);
      metric "timing.sta_power_s" "s" ~n (tot "bench.sta_power");
      metric "cluster.compute_s" "s" ~n (tot "bench.cluster");
      metric "trace.overhead_frac" "ratio" ~n (Stats.sum traced /. Stats.sum untraced -. 1.0);
      metric "trace.unattributed_frac" "ratio" ~n (unattributed_frac spans);
    ]
    @ sat_metrics ~n ~per_op:r !sat
  end

(* ---------- resynth workload ---------- *)

let resynth_blocks = [ ("tv80", 0.5); ("sparc_spu", 1.0) ]

let resynth_pool = [ 1; 2 ]

(* What the metrics read from one campaign.  The designs themselves are
   dropped as soon as the campaign is checked, so a run's peak RSS is one
   campaign's, however many passes fit in the run. *)
type campaign = {
  rows : Report.table2_row * Report.table2_row;
  lookups : int;
  hits : int;
  implement_calls : int;
  sat_queries : int;
}

let q_of_row (r : Report.table2_row) =
  match r.Report.max_inc with
  | "orig" -> 0.0
  | s -> ( try Scanf.sscanf s "%d%%" float_of_int with _ -> 5.0)

let check_campaign (result : Resynth.result) rows equiv =
  let m0 = Design.metrics result.Resynth.initial in
  let m1 = Design.metrics result.Resynth.final in
  let limit = 1.0 +. (q_of_row (snd rows) /. 100.0) +. 1e-9 in
  let die (d : Design.t) =
    let r = d.Design.floorplan.Dfm_layout.Floorplan.die in
    Dfm_layout.Geom.rect_width r *. Dfm_layout.Geom.rect_height r
  in
  List.concat
    [
      (match equiv with
      | Dfm_atpg.Equiv_sat.Equivalent -> []
      | Dfm_atpg.Equiv_sat.Different l -> [ "equivalence FAILED at " ^ l ]
      | Dfm_atpg.Equiv_sat.Interface_mismatch m -> [ "equivalence interface " ^ m ]);
      (* The paper's area constraint is the die: the final design must be
         laid out in the original floorplan, whatever its cell area. *)
      (if die result.Resynth.final > die result.Resynth.initial then [ "die area grew" ]
       else if
         not (Dfm_layout.Floorplan.fits result.Resynth.initial.Design.floorplan
                ~cell_area:m1.Design.area)
       then [ Printf.sprintf "cell area %.1f does not fit the original floorplan" m1.Design.area ]
       else []);
      (if m1.Design.delay > m0.Design.delay *. limit then
         [ Printf.sprintf "delay %.4f exceeds %.4f x (1+q)" m1.Design.delay m0.Design.delay ]
       else []);
      (if m1.Design.power > m0.Design.power *. limit then
         [ Printf.sprintf "power %.4f exceeds %.4f x (1+q)" m1.Design.power m0.Design.power ]
       else []);
    ]

(* The flow the resynth subcommand runs: baseline implement, the campaign
   over a fresh in-memory verdict cache, Table-II rows (test generation),
   and the equivalence proof of the final netlist.  Returns the campaign's
   summary and the problems its checks found. *)
let campaign ~seed (name, _, nl) =
  let d0 = Span.with_ "bench.baseline" (fun () -> Design.implement ~seed ~jobs nl) in
  let cache = Dfm_incr.Cache.create () in
  let result = Span.with_ "bench.resynth_run" (fun () -> Resynth.run ~seed ~cache d0) in
  let rows = Span.with_ "bench.table2" (fun () -> Report.table2_rows ~name result) in
  let equiv =
    Span.with_ "bench.equiv" (fun () -> Dfm_atpg.Equiv_sat.check nl result.Resynth.final.Design.netlist)
  in
  let st = Dfm_incr.Cache.stats cache in
  ( {
      rows;
      lookups = st.Dfm_incr.Store.hits + st.Dfm_incr.Store.misses;
      hits = st.Dfm_incr.Store.hits;
      implement_calls = result.Resynth.implement_calls;
      sat_queries = result.Resynth.sat_queries;
    },
    check_campaign result rows equiv )

let resynth_metrics cs =
  let n = List.length cs in
  [
    metric "resynth.rtime" "iterations" ~n
      (Stats.geomean (List.map (fun c -> (snd c.rows).Report.rtime) cs));
    metric "resynth.u_reduction_x" "x" ~n
      (Stats.geomean
         (List.map
            (fun c ->
              float_of_int (fst c.rows).Report.u /. float_of_int (max 1 (snd c.rows).Report.u))
            cs));
    metric "resynth.smax_final_pct" "%" ~n
      (List.fold_left (fun acc c -> Float.max acc (snd c.rows).Report.pct_smax_all) 0.0 cs);
  ]

let run_resynth args =
  let blocks, setup =
    repeated_setup (fun () ->
        let b = build_blocks resynth_blocks in
        warm_up ();
        b)
  in
  let ops =
    in_seed_order ~seed:args.seed
      (List.concat_map (fun b -> List.map (fun s -> (b, s)) resynth_pool) blocks)
  in
  let campaigns = ref [] in
  let run_op (((name, _, _) as b), seed) =
    let (), wall, at_ref =
      (* A campaign is mostly serial (candidate extraction, synthesis,
         small classifications), and a one-domain kernel tracks it best. *)
      scaled ~domains:1 (fun () ->
          op (Printf.sprintf "resynth %s seed %d" name seed) (fun () ->
              let c, problems = Span.with_ "op.resynth" (fun () -> campaign ~seed b) in
              campaigns := c :: !campaigns;
              problems))
    in
    record_time name ~wall ~at_ref;
    wall
  in
  if not args.trace then begin
    ignore (passes_for args.seconds (fun () -> List.iter (fun o -> ignore (run_op o)) ops));
    (setup :: metric "peak_rss_mb" "MB" (peak_rss_mb "self") :: op_metrics ())
    @ resynth_metrics !campaigns
  end
  else begin
    (* One campaign per block, untraced and then traced. *)
    let sample = first_per_block 1 ops in
    let untraced = List.map run_op sample in
    campaigns := [];
    Span.set_enabled true;
    Metrics.set_timing_enabled true;
    let e0 = effort () in
    let cert0 = Dfm_sat.Cert.totals () in
    let traced =
      List.map
        (fun o ->
          let dt = run_op o in
          drain ();
          dt)
        sample
    in
    let e = effort_since e0 in
    let cert1 = Dfm_sat.Cert.totals () in
    Span.set_enabled false;
    let events = !drained in
    let spans = List.map to_stats_span events in
    let self = Stats.self_by_name spans in
    let cs = !campaigns in
    let n = List.length cs in
    (* per-layer figures are per round: one campaign of every block *)
    let r = float_of_int n /. float_of_int (List.length blocks) in
    let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cs in
    let lookups = sum (fun c -> float_of_int c.lookups) in
    write_trace args events;
    [
      metric "resynth.run_s" "s" ~n (span_total spans "bench.resynth_run" /. r);
      metric "resynth.candidate_self_s" "s" ~n
        (Option.value ~default:0.0 (Hashtbl.find_opt self "candidate") /. r);
      metric "resynth.implement_calls" "count" ~n
        (sum (fun c -> float_of_int c.implement_calls) /. r);
      metric "resynth.equiv_s" "s" ~n (span_total spans "bench.equiv" /. r);
      metric "atpg.generate_s" "s" ~n (span_total spans "bench.table2" /. r);
      metric "resynth.sat_queries" "count" ~n
        (sum (fun c -> float_of_int c.sat_queries) /. r);
      metric "cache.lookups" "count" ~n (lookups /. r);
      metric "cache.hit_frac" "ratio" ~n (per (int_of_float lookups) (sum (fun c -> float_of_int c.hits)));
      metric "cert.checks" "count" ~n
        (float_of_int (cert1.Dfm_sat.Cert.checked - cert0.Dfm_sat.Cert.checked) /. r);
      metric "trace.overhead_frac" "ratio" ~n (Stats.sum traced /. Stats.sum untraced -. 1.0);
      metric "trace.unattributed_frac" "ratio" ~n (unattributed_frac spans);
    ]
    @ resynth_metrics cs
    @ sat_metrics ~n ~per_op:r e
  end

(* ---------- serve workload ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let daemons = ref []

let kill_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !daemons;
  daemons := []

type daemon = { pid : int; sock : string; state : string }

let connect d =
  match Client.connect d.sock with Ok c -> c | Error e -> failwith e

let wait_ready d =
  let rec go n =
    match Client.connect d.sock with
    | Ok c ->
        Client.close c
    | Error e ->
        if n = 0 then failwith ("daemon never became ready: " ^ e);
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited during start-up");
        Unix.sleepf 0.01;
        go (n - 1)
  in
  go 3000

let daemon_count = ref 0

let start_daemon args =
  incr daemon_count;
  let state =
    Filename.concat run_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !daemon_count)
  in
  rm_rf state;
  Unix.mkdir state 0o755;
  (* Relative, so the socket path stays under the sun_path limit however
     deep the checkout is. *)
  let sock = Filename.concat state "d.sock" in
  let log = Unix.openfile (Filename.concat state "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [| args.cli; "serve"; "--socket"; sock; "--state-dir"; state; "--certify"; "--jobs"; "1" |]
  in
  let pid = Unix.create_process args.cli argv devnull log log in
  Unix.close log;
  Unix.close devnull;
  daemons := pid :: !daemons;
  let d = { pid; sock; state } in
  wait_ready d;
  d

let stop_daemon d =
  (match Client.connect d.sock with
  | Ok c ->
      ignore (Client.request c P.Drain);
      Client.close c
  | Error _ -> ());
  let deadline = now () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  daemons := List.filter (fun p -> p <> d.pid) !daemons;
  rm_rf d.state

(* A job submits [block] as generated when [variant] is 0, and otherwise
   a renamed copy of it that no earlier job submitted. *)
type job = { idx : int; block : int; variant : int; tenant : int; due : float }

(* The verdict store keys a fault by the structure of its cone, with
   primary inputs and flip-flop outputs labelled by net name.  A copy of a
   block with every net renamed therefore shares no key with the block or
   with any other copy (cones fed only by constants aside): its job is
   cold, and the daemon pays SAT, Cert checks and store writes for it,
   while its cost stays the block's. *)
let renamed k text =
  let net t = if t = "const0" || t = "const1" then t else Printf.sprintf "v%d_%s" k t in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ "input"; port ] -> "input " ^ net port
         | "gate" :: cell :: inst :: nets -> String.concat " " ("gate" :: cell :: inst :: List.map net nets)
         | [ "output"; port; n ] -> String.concat " " [ "output"; port; net n ]
         | _ -> line)
  |> String.concat "\n"

(* The cold inputs of a run, in order: rounds of one copy of every block
   of [cold], in a seeded order per round.  Round [r] submits copy [r + 1]. *)
let cold_source ~rng cold =
  let perm = Array.copy cold and count = ref 0 in
  fun () ->
    let k = !count mod Array.length perm and round = !count / Array.length perm in
    if k = 0 then shuffle rng perm;
    incr count;
    (perm.(k), round + 1)

(* [n] jobs at [rate] per second, in windows of every block once (so
   later jobs repeat earlier inputs, often the other tenant's) and
   [serve_cold_per_window] cold jobs from [cold], in a seeded order.
   Tenants alternate, and each due time carries a seeded jitter of under
   half a period. *)
let window_size ~blocks = blocks + serve_cold_per_window

let schedule ~rng ~cold ~rate ~n ~blocks =
  let window = window_size ~blocks in
  let slots = Array.make window None in
  Array.init n (fun i ->
      let p = i mod window in
      if p = 0 then begin
        Array.iteri (fun k _ -> slots.(k) <- (if k < blocks then Some k else None)) slots;
        shuffle rng slots
      end;
      let block, variant = match slots.(p) with Some b -> (b, 0) | None -> cold () in
      { idx = i; block; variant; tenant = i mod 2; due = (float_of_int i +. Random.State.float rng 0.5) /. rate })

let tenants = [| "tenant-a"; "tenant-b" |]

(* Netlist text and expected report of every (block, variant) a load
   submits, made outside timing.  The reference report is the same text
   analyzed in process through the report builder the daemon uses. *)
let reference_report ~certify name text =
  let nl = Dfm_netlist.Netlist_io.read ~library:Dfm_cellmodel.Osu018.library text in
  Report.analyze_report ~name (Design.implement ~jobs ~certify nl)

let prepare inputs ~texts jobs_ =
  Array.iter
    (fun j ->
      if not (Hashtbl.mem inputs (j.block, j.variant)) then begin
        let text = renamed j.variant texts.(j.block) in
        Hashtbl.replace inputs (j.block, j.variant)
          (text, reference_report ~certify:false (List.nth serve_blocks j.block) text)
      end)
    jobs_

(* Open loop: one generator, one connection per tenant.  Each tenant's
   jobs go out at their due times; latency counts from the due time. *)
let open_loop d ~inputs jobs_ =
  let n = Array.length jobs_ in
  let reqs = Array.make n { Stats.due = 0.0; sent = 0.0; finished = 0.0 } in
  let problems = Array.make n [] in
  let t0 = now () +. 0.05 in
  let tenant k =
    let c = connect d in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    Array.iter
      (fun j ->
        if j.tenant = k then begin
          let due = t0 +. j.due in
          let wait = due -. now () in
          if wait > 0.0 then Unix.sleepf wait;
          let sent = now () in
          let text, report = Hashtbl.find inputs (j.block, j.variant) in
          let sub =
            {
              P.client = tenants.(k);
              kind = P.Analyze;
              name = List.nth serve_blocks j.block;
              netlist = text;
              limits = P.no_limits;
              static_filter = false;
              sat_mode = None;
              q_max = None;
              p1 = None;
            }
          in
          let res = Client.submit_and_wait c sub in
          reqs.(j.idx) <- { Stats.due; sent; finished = now () };
          problems.(j.idx) <-
            (match res with
            | Error e -> [ "submit: " ^ e ]
            | Ok p when p.P.r_outcome <> "done" -> [ "job " ^ p.P.r_outcome ]
            | Ok p when p.P.r_report <> report -> [ "report differs from Report.analyze_report" ]
            | Ok _ -> [])
        end)
      jobs_
  in
  let threads = List.map (fun k -> Thread.create tenant k) [ 0; 1 ] in
  List.iter Thread.join threads;
  Array.iteri
    (fun i j ->
      op
        (Printf.sprintf "serve job %d %s copy %d" i (List.nth serve_blocks j.block) j.variant)
        (fun () -> problems.(i)))
    jobs_;
  Array.to_list reqs

let latencies_ms reqs = List.map (fun r -> 1000.0 *. Stats.latency r) reqs

(* Prometheus text: sum of every sample of one family (all label sets). *)
let prom_sum text family =
  List.fold_left
    (fun acc line ->
      if line = "" || line.[0] = '#' then acc
      else
        match String.index_opt line ' ' with
        | None -> acc
        | Some sp ->
            let key = String.sub line 0 sp in
            let base = match String.index_opt key '{' with Some b -> String.sub key 0 b | None -> key in
            if base = family then
              acc +. (try float_of_string (String.trim (String.sub line sp (String.length line - sp)))
                      with _ -> 0.0)
            else acc)
    0.0 (String.split_on_char '\n' text)

let daemon_metrics d =
  let c = connect d in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request c P.Metrics with
  | Ok (P.Metrics_text t) -> t
  | _ -> failwith "metrics request failed"

(* Telemetry subscriber: turns the daemon's span collection on for as
   long as the daemon lives, and sums the duration of its serve.job spans.
   Returns a snapshot function; the listening thread ends when the daemon
   closes the connection at shutdown. *)
let span_listener d =
  let c = connect d in
  (match
     Client.subscribe_telemetry c
       { P.t_spans = true; t_metrics = false; t_families = []; t_interval_ms = None }
   with
  | Ok () -> ()
  | Error e -> failwith ("telemetry subscription: " ^ e));
  let job_s = ref 0.0 and lines = ref [] in
  let rec listen () =
    match Client.next_telemetry c with
    | Ok ("spans", data) ->
        List.iter
          (fun l ->
            if l <> "" then begin
              lines := l :: !lines;
              match Wire.parse l with
              | Ok j when Wire.str_field "name" j = Some "serve.job" ->
                  job_s := !job_s +. (Option.value ~default:0.0 (Wire.float_field "dur" j) /. 1e6)
              | _ -> ()
            end)
          (String.split_on_char '\n' data);
        listen ()
    | Ok _ -> listen ()
    | Error _ -> Client.close c
  in
  ignore (Thread.create listen ());
  fun () ->
    (* The daemon ships spans every quarter second; wait for the last batch. *)
    Unix.sleepf 0.6;
    (!job_s, List.rev !lines)

(* A probe connection in traced runs: connect+ping (the accept path) and a
   status round trip, every 200 ms while the load runs. *)
let probe d ~until =
  let accept = ref [] and status = ref [] in
  while now () < until do
    let t0 = now () in
    (match Client.connect d.sock with
    | Ok c ->
        (match Client.request c P.Ping with
        | Ok P.Pong -> accept := (1000.0 *. (now () -. t0)) :: !accept
        | _ -> ());
        let t1 = now () in
        (match Client.request c (P.Status None) with
        | Ok (P.Status_report _) -> status := (1000.0 *. (now () -. t1)) :: !status
        | _ -> ());
        Client.close c
    | Error _ -> ());
    Unix.sleepf 0.2
  done;
  (!accept, !status)

(* (class, latency) of every job of a load.  Warm and cold jobs of a
   block are separate classes: their service times differ severalfold. *)
let class_latencies ~blocks (jobs_, reqs) =
  List.mapi
    (fun i r ->
      let j = jobs_.(i) in
      ((if j.variant = 0 then j.block else blocks + j.block), Stats.latency r))
    reqs

(* One job of every class, each at its class's interquartile mean
   latency (seconds).  A figure over the mixture would jump between the
   classes' service times as the mix of a run shifts.  A class with no job
   in the load is left out. *)
let per_class_latency ~blocks lat =
  Stats.sum
    (List.filter_map
       (fun c ->
         match List.filter_map (fun (c', l) -> if c' = c then Some l else None) lat with
         | [] -> None
         | l -> Some (Stats.iqm l))
       (List.init (2 * blocks) Fun.id))

(* Each class's median latency, at reference speed, for the table. *)
let class_p50_metrics ~blocks lat =
  List.filter_map
    (fun c ->
      match List.filter_map (fun (c', l) -> if c' = c then Some l else None) lat with
      | [] -> None
      | l ->
          let name = List.nth serve_blocks (c mod blocks) ^ if c >= blocks then ".cold" else "" in
          Some (metric ("serve.p50_ms." ^ name) "ms" ~n:(List.length l) (1000.0 *. Stats.median l)))
    (List.init (2 * blocks) Fun.id)

let max_late_ms reqs =
  1000.0 *. List.fold_left (fun acc r -> Float.max acc (Stats.lateness r)) 0.0 reqs

let run_serve args =
  if args.cli = "" || not (Sys.file_exists args.cli) then failwith "serve needs --cli PATH";
  let rng = Random.State.make [| args.seed; 0x5e12e |] in
  let (texts, d), setup =
    repeated_setup ~discard:(fun (_, d) -> stop_daemon d) (fun () ->
        let texts =
          Array.of_list
            (List.map
               (fun b ->
                 Dfm_netlist.Netlist_io.to_string
                   (Dfm_circuits.Circuits.build ~scale:serve_scale b))
               serve_blocks)
        in
        (texts, start_daemon args))
  in
  Fun.protect ~finally:(fun () -> stop_daemon d; kill_daemons ()) @@ fun () ->
  let nb = List.length serve_blocks in
  (* Reference reports of the blocks as generated.  The traced run makes
     them certified with metric timing on, for cert.check_s. *)
  let inputs = Hashtbl.create 64 in
  Metrics.set_timing_enabled args.trace;
  let cert0 = Dfm_sat.Cert.totals () in
  List.iteri
    (fun b name ->
      Hashtbl.replace inputs (b, 0) (texts.(b), reference_report ~certify:args.trace name texts.(b)))
    serve_blocks;
  let cert1 = Dfm_sat.Cert.totals () in
  Metrics.set_timing_enabled false;
  (* Warm-up, outside timing: each block once, so the daemon's verdict
     store holds every block before the load starts.  A daemon pays this
     once in its lifetime, not per job. *)
  let (), warm_s =
    timed (fun () ->
        ignore
          (open_loop d ~inputs
             (Array.init nb (fun b -> { idx = b; block = b; variant = 0; tenant = b mod 2; due = 0.0 }))))
  in
  let cold =
    cold_source ~rng
      (Array.of_list
         (List.map
            (fun b -> Option.get (List.find_index (String.equal b) serve_blocks))
            serve_cold_blocks))
  in
  (* A load of about [secs] at [rate], in whole windows, with its inputs
     and reference reports made before it starts. *)
  let plan ~rate secs =
    let window = window_size ~blocks:nb in
    let n = window * max 1 (Float.to_int (Float.round (rate *. secs /. float_of_int window))) in
    let jobs_ = schedule ~rng ~cold ~rate ~n ~blocks:nb in
    prepare inputs ~texts jobs_;
    jobs_
  in
  let run jobs_ = (jobs_, open_loop d ~inputs jobs_) in
  let load ~rate secs = run (plan ~rate secs) in
  if not args.trace then begin
    (* The load runs in segments with the daemon idle between them, each
       calibrated like an engine operation, so machine drift within the
       run is tracked.  The kernel runs on two domains here: in trials that
       tracked the latencies better than one. *)
    let plans =
      List.init serve_segments (fun _ ->
          plan ~rate:serve_rate (args.seconds /. float_of_int serve_segments))
    in
    let segments =
      List.map
        (fun jobs_ ->
          let r, wall, at_ref = scaled ~domains:2 (fun () -> run jobs_) in
          (r, at_ref /. wall))
        plans
    in
    let reqs = List.concat_map (fun ((_, r), _) -> r) segments in
    let lat = List.concat_map (fun (r, _) -> class_latencies ~blocks:nb r) segments in
    let at_ref =
      List.concat_map
        (fun (r, speed) -> List.map (fun (c, l) -> (c, l *. speed)) (class_latencies ~blocks:nb r))
        segments
    in
    let ms = latencies_ms reqs and n = List.length reqs in
    if not (Stats.reportable 95.0 n) then
      Printf.printf "note: serve.job_p95_ms from %d jobs is not a reportable percentile\n" n;
    [
      setup;
      metric "op_s" "s" ~n (per_class_latency ~blocks:nb at_ref);
      metric "op_wall_s" "s" ~n (per_class_latency ~blocks:nb lat);
      metric "kernel_s" "s" ~n:(List.length !kernel_times) (Stats.median !kernel_times);
      metric "peak_rss_mb" "MB" (peak_rss_mb (string_of_int d.pid));
      metric "serve.warmup_s" "s" ~n:nb warm_s;
      metric "serve.cold_jobs" "count" ~n
        (float_of_int (List.length (List.filter (fun (c, _) -> c >= nb) lat)));
      metric "serve.job_p50_ms" "ms" ~n (Stats.median ms);
      metric "serve.job_p95_ms" "ms" ~n (Stats.nearest_rank 95.0 ms);
      metric "serve.generator_late_ms" "ms" ~n (max_late_ms reqs);
    ]
    @ class_p50_metrics ~blocks:nb at_ref
  end
  else begin
    (* A quarter at the fixed rate, untraced: the reference for the tracing
       overhead.  Then the ladder, half the run.  Then a quarter at the
       fixed rate with the daemon's span collection on and a probe
       connection measuring the accept path. *)
    let quarter = args.seconds /. 4.0 in
    let untraced = load ~rate:serve_rate quarter in
    let rung_s = args.seconds /. 2.0 /. float_of_int (List.length serve_ladder) in
    (* The highest rate, below the first that fails, whose jobs meet the
       p95 limit without a growing backlog: the last quarter's median
       latency stays within twice the first quarter's. *)
    let max_rate =
      List.fold_left
        (fun (best, ok) rate ->
          if not ok then (best, false)
          else
            let ms = latencies_ms (snd (load ~rate rung_s)) in
            let n = List.length ms and q = max 1 (List.length ms / 4) in
            let first = List.filteri (fun i _ -> i < q) ms in
            let last = List.filteri (fun i _ -> i >= n - q) ms in
            if Stats.nearest_rank 95.0 ms <= serve_limit_ms
               && Stats.median last <= 2.0 *. Stats.median first
            then (rate, true)
            else (best, false))
        (0.0, true) serve_ladder
      |> fst
    in
    let traced_jobs = plan ~rate:serve_rate quarter in
    let m0 = daemon_metrics d in
    let snapshot = span_listener d in
    let accept, status = ref [], ref [] in
    let prober =
      Thread.create
        (fun () ->
          let a, s = probe d ~until:(now () +. quarter) in
          accept := a;
          status := s)
        ()
    in
    let ((_, traced) as traced_run) = run traced_jobs in
    Thread.join prober;
    let job_s, lines = snapshot () in
    let m1 = daemon_metrics d in
    let delta f = prom_sum m1 f -. prom_sum m0 f in
    let nj = List.length traced in
    let jobs_done = float_of_int nj in
    let hits = delta "dfm_cache_hits_total" and misses = delta "dfm_cache_misses_total" in
    let path =
      Filename.concat run_dir (Printf.sprintf "trace_%s_%d.json" args.workload args.seed)
    in
    Dfm_obs.Export.write_atomic path
      ("{\"traceEvents\":[" ^ String.concat "," lines ^ "]}\n");
    Printf.printf "trace: %s (%d daemon spans)\n" path (List.length lines);
    let all = latencies_ms (snd untraced @ traced) in
    let med l = if l = [] then 0.0 else Stats.median l in
    [
      metric "serve.accept_ms" "ms" ~n:(List.length !accept) (med !accept);
      metric "serve.status_rtt_ms" "ms" ~n:(List.length !status) (med !status);
      metric "serve.queue_wait_ms_mean" "ms" ~n:nj
        (per (int_of_float (delta "dfm_serve_queue_wait_ms_count"))
           (delta "dfm_serve_queue_wait_ms_sum"));
      metric "serve.cache_hit_frac" "ratio" ~n:nj (per (int_of_float (hits +. misses)) hits);
      metric "cache.lookups" "count" ~n:nj ((hits +. misses) /. jobs_done);
      metric "cache.hit_frac" "ratio" ~n:nj (per (int_of_float (hits +. misses)) hits);
      metric "cert.checks" "count" ~n:nj (delta "dfm_cert_checked_total" /. jobs_done);
      metric "cert.check_s" "s" ~n:nb
        (float_of_int (cert1.Dfm_sat.Cert.check_ns - cert0.Dfm_sat.Cert.check_ns) /. 1e9
         /. float_of_int nb);
      metric "serve.job_p95_ms" "ms" ~n:(List.length all) (Stats.nearest_rank 95.0 all);
      metric "serve.max_jobs_per_s" "1/s" ~n:(List.length serve_ladder) max_rate;
      metric "serve.generator_late_ms" "ms" ~n:nj (max_late_ms traced);
      metric "trace.overhead_frac" "ratio" ~n:nj
        ((per_class_latency ~blocks:nb (class_latencies ~blocks:nb traced_run)
          /. per_class_latency ~blocks:nb (class_latencies ~blocks:nb untraced))
        -. 1.0);
      metric "trace.unattributed_frac" "ratio" ~n:nj
        (let total = Stats.sum (List.map Stats.latency traced) in
         if total > 0.0 then Float.max 0.0 (1.0 -. (job_s /. total)) else 0.0);
    ]
    @ sat_metrics ~n:nj ~per_op:jobs_done
        {
          sat_s = delta "dfm_atpg_sat_ns_total" /. 1e9;
          queries = int_of_float (delta "dfm_atpg_sat_queries_total");
          conflicts = int_of_float (delta "dfm_sat_conflicts_total");
          propagations = int_of_float (delta "dfm_sat_propagations_total");
        }
  end

(* ---------- main ---------- *)

let run_record args metrics =
  let str s = "\"" ^ Dfm_obs.Export.json_escape s ^ "\"" in
  let scale =
    match args.workload with
    | "serve" -> Printf.sprintf "%g" serve_scale
    | "resynth" -> String.concat "," (List.map (fun (b, s) -> Printf.sprintf "%s@%g" b s) resynth_blocks)
    | w -> String.concat "," (List.map (fun (b, s) -> Printf.sprintf "%s@%g" b s) (analyze_blocks w))
  in
  Printf.sprintf
    "{\"run_record\":{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"nproc\":%d,\"ocaml\":%s,\"rev\":%s,\"source_digest\":%s,\"jobs\":%d,\"scale\":%s,\"samples\":{%s}}}"
    (str args.workload) args.seed (json_num args.seconds) (if args.trace then 1 else 0)
    (Domain.recommended_domain_count ()) (str Sys.ocaml_version) (str args.rev) (str args.digest)
    (if args.workload = "serve" then 1 else jobs)
    (str scale)
    (String.concat "," (List.map (fun m -> Printf.sprintf "%s:%d" (str m.name) m.n) metrics))

let () =
  let args =
    try parse_args () with
    | Arg.Bad msg | Arg.Help msg ->
        prerr_string msg;
        exit 2
  in
  at_exit kill_daemons;
  Dfm_util.Parallel.set_default_jobs jobs;
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let measured =
    match args.workload with
    | "analyze-sat" | "analyze-layout" -> run_analyze args
    | "resynth" -> run_resynth args
    | "serve" -> run_serve args
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  let metrics = reported ~trace:args.trace measured in
  let shown = if args.trace then metrics else measured in
  Printf.printf "%-30s %16s  %-10s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "%-30s %16.6f  %-10s n=%d\n" m.name m.value m.unit_ m.n)
    (shown
    @ [ metric "failed_ops_frac" "ratio" ~n:!attempted (per !attempted (float_of_int !failed)) ]);
  print_endline (run_record args shown);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.name (json_num m.value) m.unit_)
          metrics))
