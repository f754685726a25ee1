(* Self-tests of the benchmark's own logic: percentiles, open-loop
   latency accounting, span self-time, and the BENCHMARK.json format
   (it parses, and every name is made of [A-Za-z0-9_.-]).

   Usage: selftest PATH/TO/BENCHMARK.json *)

module Wire = Dfm_serve.Wire

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let percentiles () =
  let xs = List.init 20 (fun i -> float_of_int (20 - i)) in
  check "nearest-rank p50 of 1..20 is 10" (close (Stats.nearest_rank 50.0 xs) 10.0);
  check "nearest-rank p95 of 1..20 is 19" (close (Stats.nearest_rank 95.0 xs) 19.0);
  check "nearest-rank p100 is the maximum" (close (Stats.nearest_rank 100.0 xs) 20.0);
  check "nearest-rank p0 is the minimum" (close (Stats.nearest_rank 0.0 xs) 1.0);
  check "nearest-rank of one sample" (close (Stats.nearest_rank 95.0 [ 7.0 ]) 7.0);
  check "median, odd count" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median, even count" (close (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5);
  check "iqm drops a quarter at each end" (close (Stats.iqm [ 100.0; 1.0; 2.0; 3.0; 4.0; 0.0; 5.0; 6.0 ]) 3.5);
  check "iqm of three samples is their mean" (close (Stats.iqm [ 1.0; 2.0; 6.0 ]) 3.0);
  check "geomean" (close (Stats.geomean [ 2.0; 8.0 ]) 4.0);
  (* ten samples beyond the percentile, no fewer *)
  check "p50 needs 20 samples" (Stats.reportable 50.0 20 && not (Stats.reportable 50.0 19));
  check "p95 needs 200 samples" (Stats.reportable 95.0 200 && not (Stats.reportable 95.0 199));
  check "p99 needs 1000 samples" (Stats.reportable 99.0 1000 && not (Stats.reportable 99.0 999));
  check "nothing is reportable from no samples" (not (Stats.reportable 0.0 0))

let open_loop () =
  let on_time = { Stats.due = 1.0; sent = 1.0; finished = 1.25 } in
  let stalled = { Stats.due = 2.0; sent = 2.5; finished = 2.75 } in
  let early = { Stats.due = 3.0; sent = 2.999; finished = 3.1 } in
  check "latency counts from the due time" (close (Stats.latency stalled) 0.75);
  check "latency of an on-time request is its service time" (close (Stats.latency on_time) 0.25);
  check "generator lateness is sent minus due" (close (Stats.lateness stalled) 0.5);
  check "an early send is not negative lateness" (close (Stats.lateness early) 0.0)

let span ?(tid = 0) name depth bseq eseq dur =
  { Stats.name; tid; depth; bseq; eseq; dur }

let self_time () =
  (* op [0..10] on domain 0 holds a [1..4] and b [5..9]; a holds c [2..3].
     A span on domain 1 inside op's interval is parallel work, not a child. *)
  let op = span "op" 0 0 9 10.0 in
  let a = span "a" 1 1 4 3.0 in
  let c = span "c" 2 2 3 1.0 in
  let b = span "b" 1 5 6 4.0 in
  let w = span ~tid:1 "w" 0 0 1 6.0 in
  let self = Stats.self_times [ op; a; c; b; w ] in
  let of_ name = snd (List.find (fun (s, _) -> s.Stats.name = name) self) in
  check "self time subtracts direct children only" (close (of_ "op") 3.0);
  check "self time of a middle span" (close (of_ "a") 2.0);
  check "self time of a leaf is its duration" (close (of_ "c") 1.0 && close (of_ "b") 4.0);
  check "other domains are not children" (close (of_ "w") 6.0);
  let by_name = Stats.self_by_name [ op; a; c; b; w; span "c" 2 7 8 0.5 ] in
  check "self time sums per name" (close (Hashtbl.find by_name "c") 1.5)

let name_ok s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (fun ch ->
         (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')
         || ch = '_' || ch = '.' || ch = '-')
       s

let benchmark_json path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Wire.parse text with
  | Error e -> check ("BENCHMARK.json parses: " ^ e) false
  | Ok j ->
      check "BENCHMARK.json parses" true;
      let names key =
        match Option.bind (Wire.member key j) Wire.to_list with
        | None -> []
        | Some l -> List.filter_map (Wire.str_field "name") l
      in
      let workloads = names "workloads" and e2e = names "end_to_end" in
      let layer = names "per_layer" in
      check "has workloads and metrics" (workloads <> [] && e2e <> [] && layer <> []);
      List.iter
        (fun n -> check (Printf.sprintf "name %S uses only [A-Za-z0-9_.-]" n) (name_ok n))
        (workloads @ e2e @ layer);
      let all = workloads @ e2e @ layer in
      check "names are unique" (List.length (List.sort_uniq compare all) = List.length all);
      check "setup_s is an end-to-end metric" (List.mem "setup_s" e2e)

let () =
  percentiles ();
  open_loop ();
  self_time ();
  (match Sys.argv with
  | [| _; path |] -> benchmark_json path
  | _ -> check "usage: selftest BENCHMARK.json" false);
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
