(* Pure arithmetic of the benchmark: order statistics, open-loop
   latency accounting and span self-time.  Kept free of any engine
   dependency so the self-tests can pin it down on synthetic inputs. *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile: the smallest sample such that at least [p]
   percent of the samples are <= it. *)
let nearest_rank p xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.nearest_rank: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the nearest-rank position of [p]. *)
let beyond p n = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

(* A percentile is reported only when at least ten samples lie beyond it;
   otherwise its value is one of the last few samples, i.e. noise. *)
let reportable p n = n > 0 && beyond p n >= 10

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The interquartile mean: the mean of the samples left after dropping
   the lowest and the highest quarter (rounded down).  It averages more of
   the samples than the median does, so it moves less between runs, and
   still ignores the tails. *)
let iqm xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.iqm: no samples"
  | s ->
      let n = List.length s in
      let k = n / 4 in
      let mid = List.filteri (fun i _ -> i >= k && i < n - k) s in
      List.fold_left ( +. ) 0.0 mid /. float_of_int (List.length mid)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.0

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | xs -> exp (mean (List.map log xs))

(* One open-loop request: when the schedule said to send it, when the
   generator actually sent it, and when its result arrived. *)
type request = { due : float; sent : float; finished : float }

(* Latency counts from the due time, so a generator or daemon stall is
   charged to every request it delayed, not only to the one in flight. *)
let latency r = r.finished -. r.due

(* How late the generator itself ran (never negative). *)
let lateness r = Float.max 0.0 (r.sent -. r.due)

(* A span as the self-time computation needs it: [tid] is the recording
   domain, [depth] the nesting depth on that domain, [bseq]/[eseq] the
   domain's program-order ticks at begin and end (the clock is too coarse
   to decide nesting of fast spans). *)
type span = {
  name : string;
  tid : int;
  depth : int;
  bseq : int;
  eseq : int;
  dur : float;  (* seconds *)
}

let is_child ~parent c =
  c.tid = parent.tid && c.depth = parent.depth + 1 && c.bseq > parent.bseq
  && c.eseq < parent.eseq

(* Self time: the span's duration minus what its direct children on the
   same domain cover.  Children of one domain run one after another, so
   their durations add up without overlap.  Work a span hands to other
   domains is not subtracted: it ran in parallel, not instead. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  List.map
    (fun p ->
      let covered =
        List.fold_left
          (fun acc c -> if is_child ~parent:p c then acc +. c.dur else acc)
          0.0 (Hashtbl.find by_tid p.tid)
      in
      (p, Float.max 0.0 (p.dur -. covered)))
    spans

(* Total self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl
