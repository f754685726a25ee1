(* Persistent, incremental CDCL SAT solver.

   Internal literal encoding: variable v (1-based external) has index
   iv = v - 1; positive literal = 2*iv, negative literal = 2*iv + 1.
   Negation is [lxor 1].

   The solver is built for reuse across many solves of one growing CNF
   (the ATPG encodes thousands of per-fault detection queries into one
   instance, each guarded by an activation literal and enabled through
   [assumptions]):

   - every [solve] fully unwinds its trail before returning — assumptions
     never leak into the next query; a SAT answer is preserved in a model
     snapshot for [value];
   - learnt clauses persist across solves and are periodically reduced by
     LBD ("glue") and activity, with binary and low-LBD clauses kept;
   - an UNSAT answer under assumptions records the failing assumption
     subset ({!failed_assumptions}, Minisat's final conflict clause);
   - conflict analysis deletes learnt clauses subsumed on the fly by the
     freshly learnt clause.

   Cost model: a solve costs the search it does, not the session's
   history.  All solver state is flat — growable arrays, per-variable and
   per-level stamp arrays, an int decision level — so nothing on the hot
   path allocates per propagation or per conflict, and nothing scans the
   whole clause database or the whole level-0 trail per solve:

   - watches: one growable array per literal, no blocker literals.  A
     visit of a watch array walks it from the top (the most recently
     pushed watcher first) and leaves the retained watchers in reverse
     visit order, a conflict included — exactly the order of the list
     representation this replaced, so the search trajectory is unchanged;
   - occurrence index: one growable array per literal of the clauses
     containing it.  Level-0 simplification visits only the literals
     fixed at level 0 since the last sweep ([simplified_at]) and deletes
     the clauses listed under them.  No clause is ever added or learnt
     containing a literal already fixed at level 0, so this deletes
     exactly the clauses a full sweep would, at the same solve;
   - deletion is lazy: a deleted clause stays in the learnt store and the
     occurrence index until an amortised compaction bounds the dead
     entries by the live ones plus [compact_slack];
     deleted watchers are unhooked by the next visit of their watch array
     or, at the latest, when the solve returns.

   Same-trajectory invariant: every solve makes the same decisions,
   propagates in the same order and learns the same clauses as the
   list-based solver it replaced; the effort counters pin this in
   [test/test_sat_incr.ml] ("pinned search trajectory") and the golden
   reports under [test/golden/] pin it end to end.

   Invariants maintained by the search:
   - every clause of size >= 2 has its two watched literals in
     positions 0 and 1 of the clause array;
   - a watched literal is moved only when it becomes false and no
     other non-false literal can replace it;
   - [trail] holds assigned literals in assignment order, with
     [trail_lim] marking decision-level boundaries.
   [check_invariants] makes the between-solve invariants executable. *)

type clause = {
  cid : int;
  lits : int array;
  mutable activity : float;
  learnt : bool;
  lbd : int;
  mutable deleted : bool;
}

type result = Sat | Unsat | Unknown

(* Clausal trace for certification (a DRUP-style derivation): every clause
   the solver admits is reported to the tracer — original clauses exactly as
   given (pre-normalization; the checker normalizes independently) and every
   learnt clause the moment it is derived.  Learnt units and the empty
   clause are traced too, so the trace alone lets an independent checker
   replay the refutation.  Deletions are not traced: a checker that keeps
   every clause remains sound, merely slower. *)
type trace_event = Trace_original of int list | Trace_learnt of int list

(* Growable array of clauses: the watch arrays, the occurrence lists and
   the learnt store.  Slots at and above [len] hold [no_clause]. *)
type cvec = { mutable data : clause array; mutable len : int }

(* Sentinel for "no clause": the reason of a decision, an assumption or a
   level-0 fact, and the empty slots of a [cvec]. *)
let no_clause =
  { cid = -1; lits = [||]; activity = 0.0; learnt = false; lbd = 0; deleted = true }

let cvec_make () = { data = [||]; len = 0 }

let cvec_push v c =
  if v.len = Array.length v.data then begin
    let d = Array.make (max 4 (2 * v.len)) no_clause in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- c;
  v.len <- v.len + 1

let cvec_clear v =
  Array.fill v.data 0 v.len no_clause;
  v.len <- 0

(* Drop deleted clauses in place, keeping the survivors' order; a mostly
   empty backing array is given back. *)
let cvec_purge v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let c = v.data.(i) in
    if not c.deleted then begin
      v.data.(!j) <- c;
      incr j
    end
  done;
  if Array.length v.data > 16 && 4 * !j < Array.length v.data then begin
    let d = Array.make (max 4 (2 * !j)) no_clause in
    Array.blit v.data 0 d 0 !j;
    v.data <- d
  end
  else Array.fill v.data !j (v.len - !j) no_clause;
  v.len <- !j

(* Lazily deleted entries of a store are compacted away once they exceed
   the live entries by this many. *)
let compact_slack = 256

type t = {
  mutable nvars : int;
  mutable nclauses : int;               (* live original clauses (size >= 2) *)
  learnts : cvec;                       (* learnt clauses, oldest first *)
  mutable n_learnts : int;              (* live entries of [learnts] *)
  mutable learnts_dead : int;
  mutable watches : cvec array;         (* indexed by the watched literal *)
  mutable occs : cvec array;            (* literal -> clauses containing it *)
  mutable occ_live : int;               (* occurrence entries of live clauses *)
  mutable occ_dead : int;               (* ... of deleted, uncompacted clauses *)
  mutable dirty : bool array;           (* per literal: watchers may be deleted *)
  mutable dirty_lits : int list;
  mutable assign : int array;           (* per var: -1 unknown, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : clause array;        (* [no_clause] when none *)
  mutable saved_phase : bool array;
  mutable activity : float array;
  mutable model : int array;            (* snapshot of [assign] at the last Sat *)
  mutable var_inc : float;
  mutable trail : int array;
  mutable trail_len : int;
  mutable trail_lim : int array;        (* trail length at each decision *)
  mutable dlevel : int;                 (* current decision level *)
  mutable qhead : int;
  (* Variable order: indexed binary heap over (activity, index). The linear
     scan this replaces was fine for throwaway per-query solvers but is
     O(nvars) per decision — ruinous once one persistent instance holds the
     variables of thousands of retired queries. *)
  mutable heap : int array;
  mutable heap_pos : int array;         (* var -> index in heap, -1 = absent *)
  mutable heap_len : int;
  (* Stamp arrays replace per-conflict hash tables: an entry is marked iff
     it equals the stamp of the pass that set it. *)
  mutable stamp : int;
  mutable seen : int array;             (* per var *)
  mutable level_seen : int array;       (* per decision level *)
  mutable lit_seen : int array;         (* per literal *)
  mutable assump_tag : int array;       (* per var: [solve_id] of the solve assuming it *)
  mutable solve_id : int;
  mutable ana_lits : int array;         (* conflict analysis scratch *)
  traversed : cvec;                     (* learnt reasons met by the last analysis *)
  mutable failed : int list;            (* see [failed_assumptions] *)
  mutable next_cid : int;
  mutable unsat : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable cla_inc : float;
  mutable max_learnts : int;
  mutable simplified_at : int;          (* trail length at the last level-0 sweep *)
  mutable tracer : (trace_event -> unit) option;
  counted : bool;                       (* flush effort into the process totals? *)
}

let create ?(counted = true) () =
  {
    nvars = 0;
    nclauses = 0;
    learnts = cvec_make ();
    n_learnts = 0;
    learnts_dead = 0;
    watches = [| cvec_make (); cvec_make () |];
    occs = [| cvec_make (); cvec_make () |];
    occ_live = 0;
    occ_dead = 0;
    dirty = Array.make 2 false;
    dirty_lits = [];
    assign = Array.make 1 (-1);
    level = Array.make 1 0;
    reason = Array.make 1 no_clause;
    saved_phase = Array.make 1 false;
    activity = Array.make 1 0.0;
    model = Array.make 1 (-1);
    var_inc = 1.0;
    trail = Array.make 1 0;
    trail_len = 0;
    trail_lim = Array.make 2 0;
    dlevel = 0;
    qhead = 0;
    heap = Array.make 1 0;
    heap_pos = Array.make 1 (-1);
    heap_len = 0;
    stamp = 0;
    seen = Array.make 1 0;
    level_seen = Array.make 3 0;
    lit_seen = Array.make 2 0;
    assump_tag = Array.make 1 0;
    solve_id = 0;
    ana_lits = Array.make 16 0;
    traversed = cvec_make ();
    failed = [];
    next_cid = 0;
    unsat = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    cla_inc = 1.0;
    max_learnts = 4000;
    simplified_at = 0;
    tracer = None;
    counted;
  }

let set_trace s tracer = s.tracer <- tracer

let trace s ev = match s.tracer with Some f -> f ev | None -> ()

let num_vars s = s.nvars
let num_clauses s = s.nclauses
let num_learnts s = s.n_learnts
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations

(* Process-wide effort totals, accumulated across every solver instance in
   every domain.  Per-solver counting uses plain mutable fields on the hot
   path; the deltas are flushed here (and to the metrics registry) once per
   [solve] call.  Counting is unconditional, so effort numbers are identical
   whether or not any exporter is attached. *)
let conflicts_total = Atomic.make 0
let decisions_total = Atomic.make 0
let propagations_total = Atomic.make 0

let totals () =
  (Atomic.get conflicts_total, Atomic.get decisions_total, Atomic.get propagations_total)

(* Solves and conflicts carry the ambient tenant/job attribution so a live
   daemon can expose per-tenant SAT effort; the rest stay process-global. *)
let m_solves =
  Dfm_obs.Metrics.attributed_counter ~help:"SAT solve calls" "dfm_sat_solves_total"

let m_conflicts =
  Dfm_obs.Metrics.attributed_counter ~help:"CDCL conflicts across all solvers"
    "dfm_sat_conflicts_total"

let m_decisions =
  Dfm_obs.Metrics.counter ~help:"CDCL decisions across all solvers"
    "dfm_sat_decisions_total"

let m_propagations =
  Dfm_obs.Metrics.counter ~help:"Literals propagated across all solvers"
    "dfm_sat_propagations_total"

let m_learnts_kept =
  Dfm_obs.Metrics.counter ~help:"Learnt clauses kept by reduction sweeps"
    "dfm_sat_learnts_kept_total"

let m_learnts_dropped =
  Dfm_obs.Metrics.counter ~help:"Learnt clauses dropped by reduction sweeps"
    "dfm_sat_learnts_dropped_total"

let m_learnts_subsumed =
  Dfm_obs.Metrics.counter ~help:"Learnt clauses deleted by on-the-fly subsumption"
    "dfm_sat_learnts_subsumed_total"

(* ---- variable-order heap ------------------------------------------- *)

(* Total order: higher activity first, lower index breaking ties — the same
   choice the old linear scan made, so branching stays deterministic. *)
let heap_better s v w =
  s.activity.(v) > s.activity.(w) || (s.activity.(v) = s.activity.(w) && v < w)

let heap_swap s i j =
  let v = s.heap.(i) and w = s.heap.(j) in
  s.heap.(i) <- w;
  s.heap.(j) <- v;
  s.heap_pos.(w) <- i;
  s.heap_pos.(v) <- j

let rec heap_sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_better s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_sift_up s parent
    end
  end

let rec heap_sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && heap_better s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_len && heap_better s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_sift_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_len >= Array.length s.heap then begin
      let h = Array.make (max 2 (2 * Array.length s.heap)) 0 in
      Array.blit s.heap 0 h 0 s.heap_len;
      s.heap <- h
    end;
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_sift_up s (s.heap_len - 1)
  end

let heap_pop s =
  if s.heap_len = 0 then -1
  else begin
    let v = s.heap.(0) in
    s.heap_len <- s.heap_len - 1;
    s.heap_pos.(v) <- -1;
    if s.heap_len > 0 then begin
      let w = s.heap.(s.heap_len) in
      s.heap.(0) <- w;
      s.heap_pos.(w) <- 0;
      heap_sift_down s 0
    end;
    v
  end

(* ---- variables ------------------------------------------------------ *)

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_arrays s n =
  let old = Array.length s.assign in
  if n > old then begin
    let nn = max n (2 * old) in
    s.assign <- grow s.assign nn (-1);
    s.level <- grow s.level nn 0;
    s.reason <- grow s.reason nn no_clause;
    s.saved_phase <- grow s.saved_phase nn false;
    s.activity <- grow s.activity nn 0.0;
    s.model <- grow s.model nn (-1);
    s.trail <- grow s.trail nn 0;
    s.heap_pos <- grow s.heap_pos nn (-1);
    s.seen <- grow s.seen nn 0;
    s.assump_tag <- grow s.assump_tag nn 0;
    let oldl = Array.length s.watches in
    let per_lit a =
      Array.init (2 * nn) (fun l -> if l < oldl then a.(l) else cvec_make ())
    in
    s.watches <- per_lit s.watches;
    s.occs <- per_lit s.occs;
    s.dirty <- grow s.dirty (2 * nn) false;
    s.lit_seen <- grow s.lit_seen (2 * nn) 0
  end

let ensure_vars s n =
  if n > s.nvars then begin
    grow_arrays s n;
    for v = s.nvars to n - 1 do
      heap_insert s v
    done;
    s.nvars <- n
  end

let new_var s =
  ensure_vars s (s.nvars + 1);
  s.nvars

let int_lit ext =
  let v = abs ext - 1 in
  if ext > 0 then 2 * v else (2 * v) + 1

let ext_of_int l =
  let v = (l / 2) + 1 in
  if l land 1 = 0 then v else -v

let lit_var l = l / 2
let lit_neg l = l lxor 1

(* Value of an internal literal: -1 unknown, 0 false, 1 true. *)
let lvalue s l =
  let a = s.assign.(lit_var l) in
  if a < 0 then -1 else if l land 1 = 0 then a else 1 - a

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    (* Uniform rescale preserves the heap order. *)
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_sift_up s s.heap_pos.(v)

let decay_activity s = s.var_inc <- s.var_inc /. 0.95

(* Focus the branching heuristic on a set of variables (1-based external
   ids) by bumping them ahead of everything else.  Used by incremental
   sessions to point the search at the clauses a new query just added:
   without it VSIDS still reflects the previous queries' hot spots and the
   solver wanders the shared CNF before touching the new cone.  Purely
   heuristic — results are unaffected, only the branching order. *)
let focus_vars s ext_vars =
  List.iter
    (fun ev ->
      let v = ev - 1 in
      if v >= 0 && v < s.nvars then bump_var s v)
    ext_vars;
  decay_activity s

let enqueue s l reason =
  let v = lit_var l in
  s.assign.(v) <- (if l land 1 = 0 then 1 else 0);
  s.level.(v) <- s.dlevel;
  s.reason.(v) <- reason;
  s.saved_phase.(v) <- l land 1 = 0;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* Propagate all pending assignments; return a conflicting clause, or
   [no_clause] if none.

   A watch array is visited from the top down.  Survivors are written
   downward from the top as they are met (the write index never passes
   the read index), so they end up in visit order from the top; the tail
   then reverses them and moves them to the bottom, which leaves the last
   survivor on top — the list order of the representation this replaced.
   After a conflict the unvisited watchers are carried over untouched;
   deleted watchers are dropped on the way. *)
let propagate s =
  let conflict = ref no_clause in
  while !conflict == no_clause && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let falsified = lit_neg l in
    let ws = s.watches.(falsified) in
    let data = ws.data in
    let n = ws.len in
    let j = ref n in
    for i = n - 1 downto 0 do
      let c = data.(i) in
      if c.deleted then ()  (* lazily unhooked *)
      else if !conflict != no_clause then begin
        decr j;
        data.(!j) <- c
      end
      else begin
        let lits = c.lits in
        (* Ensure the falsified literal is at position 1. *)
        if lits.(0) = falsified then begin
          lits.(0) <- lits.(1);
          lits.(1) <- falsified
        end;
        let first = lits.(0) in
        if lvalue s first = 1 then begin
          (* Clause satisfied: keep watching. *)
          decr j;
          data.(!j) <- c
        end
        else begin
          (* Look for a new watch. *)
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && lvalue s lits.(!k) = 0 do
            incr k
          done;
          if !k < len then begin
            let w = lits.(!k) in
            lits.(1) <- w;
            lits.(!k) <- falsified;
            cvec_push s.watches.(w) c
          end
          else begin
            (* No new watch: clause is unit or conflicting. *)
            decr j;
            data.(!j) <- c;
            if lvalue s first = 0 then conflict := c else enqueue s first c
          end
        end
      end
    done;
    let kept = n - !j in
    let a = ref !j and b = ref (n - 1) in
    while !a < !b do
      let c = data.(!a) in
      data.(!a) <- data.(!b);
      data.(!b) <- c;
      incr a;
      decr b
    done;
    if !j > 0 then begin
      Array.blit data !j data 0 kept;
      Array.fill data kept (n - kept) no_clause
    end;
    ws.len <- kept
  done;
  !conflict

let decision_level s = s.dlevel

let new_decision_level s =
  s.decisions <- s.decisions + 1;
  if s.dlevel >= Array.length s.trail_lim then begin
    s.trail_lim <- grow s.trail_lim (2 * s.dlevel) 0;
    s.level_seen <- grow s.level_seen (2 * s.dlevel + 1) 0
  end;
  s.trail_lim.(s.dlevel) <- s.trail_len;
  s.dlevel <- s.dlevel + 1

let backtrack s target_level =
  if s.dlevel > target_level then begin
    let lim = s.trail_lim.(target_level) in
    for i = s.trail_len - 1 downto lim do
      let v = lit_var s.trail.(i) in
      s.assign.(v) <- -1;
      s.reason.(v) <- no_clause;
      heap_insert s v
    done;
    s.trail_len <- lim;
    s.dlevel <- target_level
  end;
  s.qhead <- s.trail_len

let bump_clause s (c : clause) =
  if c.learnt then begin
    c.activity <- c.activity +. s.cla_inc;
    if c.activity > 1e20 then begin
      for i = 0 to s.learnts.len - 1 do
        let c' = s.learnts.data.(i) in
        if not c'.deleted then c'.activity <- c'.activity *. 1e-20
      done;
      s.cla_inc <- s.cla_inc *. 1e-20
    end
  end

let next_stamp s =
  s.stamp <- s.stamp + 1;
  s.stamp

(* Literal block distance of a learnt clause: the number of distinct
   decision levels among its literals.  Low-LBD ("glue") clauses are the
   ones worth keeping across solves. *)
let compute_lbd s lits =
  let stamp = next_stamp s in
  let n = ref 0 in
  Array.iter
    (fun l ->
      let lv = s.level.(lit_var l) in
      if lv > 0 && s.level_seen.(lv) <> stamp then begin
        s.level_seen.(lv) <- stamp;
        incr n
      end)
    lits;
  max 1 !n

(* First-UIP conflict analysis.  Returns the learned clause's literals with
   the asserting literal first, and the backtrack level; the learnt
   clauses traversed while resolving — the candidates for on-the-fly
   subsumption — are left in [s.traversed]. *)
let analyze s conflict =
  let stamp = next_stamp s in
  let seen = s.seen in
  let cur_level = s.dlevel in
  cvec_clear s.traversed;
  (* Lower-level literals, in the order they are met. *)
  let n_lower = ref 0 in
  let counter = ref 0 in
  let handle_lit q =
    let v = lit_var q in
    if seen.(v) <> stamp && s.level.(v) > 0 then begin
      seen.(v) <- stamp;
      bump_var s v;
      if s.level.(v) = cur_level then incr counter
      else begin
        if !n_lower = Array.length s.ana_lits then
          s.ana_lits <- grow s.ana_lits (2 * !n_lower) 0;
        s.ana_lits.(!n_lower) <- q;
        incr n_lower
      end
    end
  in
  let resolve c skip =
    bump_clause s c;
    if c.learnt then cvec_push s.traversed c;
    let lits = c.lits in
    for k = 0 to Array.length lits - 1 do
      if lits.(k) <> skip then handle_lit lits.(k)
    done
  in
  resolve conflict (-1);
  let idx = ref (s.trail_len - 1) in
  let p = ref (-1) in
  let continue = ref true in
  while !continue do
    (* Find the next seen literal on the trail. *)
    while seen.(lit_var s.trail.(!idx)) <> stamp do
      decr idx
    done;
    p := s.trail.(!idx);
    let v = lit_var !p in
    seen.(v) <- 0;
    decr counter;
    idx := !idx - 1;
    if !counter = 0 then continue := false
    else begin
      let r = s.reason.(v) in
      assert (r != no_clause);
      resolve r !p
    end
  done;
  (* Conflict-clause minimization (local self-subsumption): a literal whose
     reason clause's other literals all appear in the learned clause is
     implied by the rest and can be dropped.  The variables still marked
     [seen] are exactly those of the lower-level literals. *)
  let removable l =
    let v = lit_var l in
    let r = s.reason.(v) in
    r != no_clause
    && Array.for_all
         (fun q ->
           let qv = lit_var q in
           qv = v || seen.(qv) = stamp || s.level.(qv) = 0)
         r.lits
  in
  (* The kept literals follow the asserting one latest-met first. *)
  let out = Array.make (!n_lower + 1) (lit_neg !p) in
  let n_out = ref 1 in
  let blevel = ref 0 in
  for i = !n_lower - 1 downto 0 do
    let l = s.ana_lits.(i) in
    if not (removable l) then begin
      out.(!n_out) <- l;
      incr n_out;
      blevel := max !blevel s.level.(lit_var l)
    end
  done;
  (Array.sub out 0 !n_out, !blevel)

(* Clause deletion.  The clause is only marked: its watchers are unhooked
   lazily (the watch arrays of its two watched literals are flagged for a
   sweep), and its learnt-store and occurrence entries become dead
   entries for the next compaction.  A deleted clause is never mutated again, so one
   that is still the reason of an assignment keeps serving conflict
   analysis until that assignment is undone. *)
let mark_dirty s l =
  if not s.dirty.(l) then begin
    s.dirty.(l) <- true;
    s.dirty_lits <- l :: s.dirty_lits
  end

let delete_clause s c =
  c.deleted <- true;
  if c.learnt then begin
    s.n_learnts <- s.n_learnts - 1;
    s.learnts_dead <- s.learnts_dead + 1
  end
  else s.nclauses <- s.nclauses - 1;
  let k = Array.length c.lits in
  s.occ_live <- s.occ_live - k;
  s.occ_dead <- s.occ_dead + k;
  mark_dirty s c.lits.(0);
  mark_dirty s c.lits.(1)

(* Unhook every deleted watcher: afterwards each watch array holds exactly
   its live watchers, in their previous order. *)
let clean_watches s =
  List.iter
    (fun l ->
      s.dirty.(l) <- false;
      cvec_purge s.watches.(l))
    s.dirty_lits;
  s.dirty_lits <- []

(* Amortised compaction: a store is compacted once its dead entries exceed
   its live ones by [compact_slack], so dead entries cost O(1) each and
   never outgrow the live database. *)
let maybe_compact s =
  if s.learnts_dead > s.n_learnts + compact_slack then begin
    cvec_purge s.learnts;
    s.learnts_dead <- 0
  end;
  if s.occ_dead > s.occ_live + compact_slack then begin
    Array.iter cvec_purge s.occs;
    s.occ_dead <- 0
  end

(* On-the-fly subsumption: a freshly learnt clause that is a strict subset
   of a learnt clause it was resolved against makes the larger clause
   redundant.  Deleting it is sound — both are consequences of the CNF and
   the smaller one is logically stronger.  Reason clauses need no lock:
   deletion never mutates a clause, so an assignment's reason stays usable
   by conflict analysis until the assignment is undone. *)
let subsume_on_the_fly s learnt_lits =
  let nl = Array.length learnt_lits in
  let stamp = next_stamp s in
  Array.iter (fun l -> s.lit_seen.(l) <- stamp) learnt_lits;
  (* Learnt clauses hold distinct literals, so counting the marked ones
     decides inclusion. *)
  let covers (c : clause) =
    let hits = ref 0 in
    Array.iter (fun q -> if s.lit_seen.(q) = stamp then incr hits) c.lits;
    !hits = nl
  in
  let dropped = ref 0 in
  for i = 0 to s.traversed.len - 1 do
    let c = s.traversed.data.(i) in
    if (not c.deleted) && Array.length c.lits > nl && covers c then begin
      delete_clause s c;
      incr dropped
    end
  done;
  if !dropped > 0 then Dfm_obs.Metrics.incr ~by:!dropped m_learnts_subsumed

(* Watch arrays are indexed by the watched literal itself and are visited
   by [propagate] when that literal becomes false; the occurrence index
   lists the clause under every one of its literals. *)
let attach_clause s c =
  cvec_push s.watches.(c.lits.(0)) c;
  cvec_push s.watches.(c.lits.(1)) c;
  Array.iter (fun l -> cvec_push s.occs.(l) c) c.lits;
  s.occ_live <- s.occ_live + Array.length c.lits

let mk_clause s ~learnt ~activity ~lbd lits =
  let cid = s.next_cid in
  s.next_cid <- cid + 1;
  { cid; lits; activity; learnt; lbd; deleted = false }

let add_clause s ext_lits =
  if not s.unsat then begin
    trace s (Trace_original ext_lits);
    (* Incremental use: clauses may arrive between solves; strip any leftover
       search state first so level-0 simplification below stays sound. *)
    if decision_level s > 0 then backtrack s 0;
    List.iter (fun l -> ensure_vars s (abs l)) ext_lits;
    (* Normalize: dedup, drop tautologies. *)
    let lits = List.sort_uniq compare (List.map int_lit ext_lits) in
    let taut = List.exists (fun l -> List.mem (lit_neg l) lits) lits in
    (* Clauses are only ever added at decision level 0, so the current
       assignment is permanent: literals false now are false forever and can
       be dropped; a literal true now satisfies the clause for good.  This
       is also why no stored clause ever contains a literal fixed at level
       0 when it is added — the premise of index-driven [simplify]. *)
    let satisfied = List.exists (fun l -> lvalue s l = 1) lits in
    let lits = List.filter (fun l -> lvalue s l <> 0) lits in
    if not (taut || satisfied) then
      match lits with
      | [] -> s.unsat <- true
      | [ l ] ->
          (* Unit at level 0: apply immediately if possible. *)
          (match lvalue s l with
          | 0 -> s.unsat <- true
          | 1 -> ()
          | _ ->
              enqueue s l no_clause;
              if propagate s != no_clause then begin
                s.unsat <- true;
                (* the instance is dead: mark the queue drained so the
                   between-solve invariants keep holding *)
                s.qhead <- s.trail_len
              end)
      | _ ->
          let c = mk_clause s ~learnt:false ~activity:0.0 ~lbd:0 (Array.of_list lits) in
          s.nclauses <- s.nclauses + 1;
          attach_clause s c
  end

let pick_branch_var s =
  let v = ref (heap_pop s) in
  while !v >= 0 && s.assign.(!v) >= 0 do
    v := heap_pop s
  done;
  !v

(* Reduce the learnt store: keep binaries and glue clauses (LBD <= 2); of
   the rest, delete the worse half by (LBD, activity).  Candidates are
   ranked newest first, the stable sort breaking ties in that order.
   Called only when the trail is at the assumption level. *)
let reduce_learnts s =
  let victims = ref [] in
  for i = 0 to s.learnts.len - 1 do
    let c = s.learnts.data.(i) in
    if not (c.deleted || c.lbd <= 2 || Array.length c.lits <= 2) then
      victims := c :: !victims
  done;
  let sorted =
    List.sort
      (fun (a : clause) (b : clause) ->
        if a.lbd <> b.lbd then compare b.lbd a.lbd else compare a.activity b.activity)
      !victims
  in
  let n = List.length sorted in
  List.iteri (fun i (c : clause) -> if i < n / 2 then delete_clause s c) sorted;
  cvec_purge s.learnts;
  s.learnts_dead <- 0;
  Dfm_obs.Metrics.incr ~by:s.n_learnts m_learnts_kept;
  Dfm_obs.Metrics.incr ~by:(n / 2) m_learnts_dropped

(* Level-0 simplification (MiniSat's [simplify]): a clause satisfied by the
   permanent level-0 assignment can never constrain the search again, but
   left attached it is re-visited by [propagate] every time one of its
   watched literals is falsified — for the rest of the session's life.
   Retiring an activation group satisfies its whole guarded cone at once,
   so a long incremental session without this sweep drags an ever-growing
   tail of dead cones through every propagation.  Runs only when the trail
   has grown since the last sweep (new permanent facts), and visits only
   the clauses listed under those new facts in the occurrence index: every
   older fact was swept before, and no clause is ever added or learnt
   containing a literal already fixed at level 0.  Reasons of the new
   level-0 assignments are cleared: permanent facts need no justification,
   which makes deleting their reason clauses safe. *)
let simplify s =
  if
    (not s.unsat) && decision_level s = 0
    && s.qhead = s.trail_len
    && s.trail_len > s.simplified_at
  then begin
    let nl = ref 0 in
    for i = s.simplified_at to s.trail_len - 1 do
      let l = s.trail.(i) in
      s.reason.(lit_var l) <- no_clause;
      let occ = s.occs.(l) in
      for k = 0 to occ.len - 1 do
        let c = occ.data.(k) in
        if not c.deleted then begin
          if c.learnt then incr nl;
          delete_clause s c
        end
      done;
      (* Every clause listed under a true level-0 literal is deleted now,
         and no later clause can contain it: drop the whole list. *)
      s.occ_dead <- s.occ_dead - occ.len;
      occ.data <- [||];
      occ.len <- 0
    done;
    Dfm_obs.Metrics.incr ~by:!nl m_learnts_dropped;
    s.simplified_at <- s.trail_len
  end

(* Luby sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

(* Final-conflict analysis (Minisat's analyzeFinal): given the variables of
   a conflict at or below the assumption levels (marked by [mark]), walk
   the implication graph back to the subset of assumptions it depends on.
   Variables forced with no reason clause that are not assumptions (learnt
   units asserted at the assumption level) are consequences of the CNF
   alone and contribute no dependency.  Only variables above level 0 are
   ever marked, so the walk stops at the first decision. *)
let analyze_final s mark =
  let stamp = next_stamp s in
  mark (fun v -> if s.level.(v) > 0 then s.seen.(v) <- stamp);
  let failed = ref [] in
  let stop = if s.dlevel > 0 then s.trail_lim.(0) else s.trail_len in
  for i = s.trail_len - 1 downto stop do
    let l = s.trail.(i) in
    let v = lit_var l in
    if s.seen.(v) = stamp then begin
      let r = s.reason.(v) in
      if r == no_clause then begin
        if s.assump_tag.(v) = s.solve_id then failed := ext_of_int l :: !failed
      end
      else
        Array.iter
          (fun q ->
            let qv = lit_var q in
            if qv <> v && s.level.(qv) > 0 then s.seen.(qv) <- stamp)
          r.lits;
      s.seen.(v) <- 0
    end
  done;
  !failed

let solve_search ?(assumptions = []) ?(max_conflicts = max_int) s =
  s.failed <- [];
  if s.unsat then Unsat
  else begin
    List.iter (fun l -> ensure_vars s (abs l)) assumptions;
    let assumption_lits = Array.of_list (List.map int_lit assumptions) in
    let n_assumptions = Array.length assumption_lits in
    s.solve_id <- s.solve_id + 1;
    Array.iter (fun l -> s.assump_tag.(lit_var l) <- s.solve_id) assumption_lits;
    backtrack s 0;
    if propagate s != no_clause then begin
      s.unsat <- true;
      s.qhead <- s.trail_len (* dead instance: queue counts as drained *)
    end;
    if s.unsat then Unsat
    else begin
      simplify s;
      let result = ref Unknown in
      let done_ = ref false in
      let restart_count = ref 0 in
      let conflicts_at_start = s.conflicts in
      let conflict_budget_for_restart = ref (100 * luby 1) in
      let conflicts_this_restart = ref 0 in
      while not !done_ do
        let confl = propagate s in
        if confl != no_clause then begin
          s.conflicts <- s.conflicts + 1;
          incr conflicts_this_restart;
          if decision_level s <= n_assumptions then begin
            (* Conflict within (or below) the assumption levels: the
               assumptions themselves are contradicted. *)
            if decision_level s = 0 then s.unsat <- true
            else
              s.failed <-
                analyze_final s (fun mark ->
                    Array.iter (fun l -> mark (lit_var l)) confl.lits);
            result := Unsat;
            done_ := true
          end
          else if s.conflicts - conflicts_at_start >= max_conflicts then begin
            result := Unknown;
            done_ := true
          end
          else begin
            let learnt, blevel = analyze s confl in
            let lbd = compute_lbd s learnt in
            (* Every first-UIP learnt clause (minimization included) is a
               resolvent of database clauses only: [analyze] runs strictly
               above the assumption levels, and assumption literals —
               having no reason clause — are never resolved away.  The
               trace is therefore a valid derivation from the original
               clauses alone, independent of this query's assumptions. *)
            (match s.tracer with
            | Some f -> f (Trace_learnt (Array.to_list (Array.map ext_of_int learnt)))
            | None -> ());
            let blevel = max blevel n_assumptions in
            backtrack s blevel;
            let l0 = learnt.(0) in
            if Array.length learnt = 1 then begin
              if blevel = 0 then begin
                match lvalue s l0 with
                | 0 ->
                    s.unsat <- true;
                    result := Unsat;
                    done_ := true
                | 1 -> ()
                | _ -> enqueue s l0 no_clause
              end
              else enqueue s l0 no_clause
            end
            else begin
              (* Put a highest-level "other" literal in position 1 so the
                 watch invariant holds after backtracking. *)
              let hi = ref 1 in
              for k = 2 to Array.length learnt - 1 do
                if s.level.(lit_var learnt.(k)) > s.level.(lit_var learnt.(!hi)) then hi := k
              done;
              let tmp = learnt.(1) in
              learnt.(1) <- learnt.(!hi);
              learnt.(!hi) <- tmp;
              let c = mk_clause s ~learnt:true ~activity:s.cla_inc ~lbd learnt in
              cvec_push s.learnts c;
              s.n_learnts <- s.n_learnts + 1;
              attach_clause s c;
              enqueue s l0 c;
              subsume_on_the_fly s learnt
            end;
            decay_activity s;
            s.cla_inc <- s.cla_inc /. 0.999
          end
        end
        else begin
          if !conflicts_this_restart >= !conflict_budget_for_restart then begin
            (* Restart. *)
            conflicts_this_restart := 0;
            incr restart_count;
            conflict_budget_for_restart := 100 * luby (!restart_count + 1);
            backtrack s n_assumptions;
            if s.n_learnts > s.max_learnts then begin
              reduce_learnts s;
              s.max_learnts <- s.max_learnts + (s.max_learnts / 10)
            end
          end;
          (* Place assumptions first. *)
          if decision_level s < n_assumptions then begin
            let l = assumption_lits.(decision_level s) in
            match lvalue s l with
            | 1 -> new_decision_level s (* already true: dummy level *)
            | 0 ->
                (* The assumption is already falsified by the others (or by
                   the CNF): report which assumptions it depends on. *)
                s.failed <- ext_of_int l :: analyze_final s (fun mark -> mark (lit_var l));
                result := Unsat;
                done_ := true
            | _ ->
                new_decision_level s;
                enqueue s l no_clause
          end
          else begin
            let v = pick_branch_var s in
            if v < 0 then begin
              (* Total assignment: snapshot it before unwinding. *)
              Array.blit s.assign 0 s.model 0 s.nvars;
              result := Sat;
              done_ := true
            end
            else begin
              new_decision_level s;
              let l = if s.saved_phase.(v) then 2 * v else (2 * v) + 1 in
              enqueue s l no_clause
            end
          end
        end
      done;
      (* Fully unwind: assumptions (and all search state above level 0)
         never survive a solve.  SAT answers live on in [model]; UNSAT
         dependency in [failed].  Deleted clauses are unhooked and the
         stores compacted, so the next solve starts from exact watch
         arrays and bounded dead entries. *)
      backtrack s 0;
      clean_watches s;
      maybe_compact s;
      !result
    end
  end

let result_to_string = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

let solve ?assumptions ?max_conflicts s =
  Dfm_util.Failpoint.hit "sat.solve";
  let c0 = s.conflicts and d0 = s.decisions and p0 = s.propagations in
  let flush () =
    (* Verification-only instances (certificate re-checks) are uncounted:
       their effort must not reach the process totals, which feed campaign
       results and checkpoint records — certified runs stay bit-identical
       to uncertified ones. *)
    if s.counted then begin
      let dc = s.conflicts - c0 and dd = s.decisions - d0 and dp = s.propagations - p0 in
      ignore (Atomic.fetch_and_add conflicts_total dc);
      ignore (Atomic.fetch_and_add decisions_total dd);
      ignore (Atomic.fetch_and_add propagations_total dp);
      Dfm_obs.Metrics.incr_attr m_solves;
      Dfm_obs.Metrics.incr_attr ~by:dc m_conflicts;
      Dfm_obs.Metrics.incr ~by:dd m_decisions;
      Dfm_obs.Metrics.incr ~by:dp m_propagations
    end
  in
  Dfm_obs.Span.with_ "sat.solve" (fun () ->
      let r =
        Fun.protect ~finally:flush (fun () -> solve_search ?assumptions ?max_conflicts s)
      in
      if Dfm_obs.Span.enabled () then begin
        Dfm_obs.Span.note "result" (result_to_string r);
        Dfm_obs.Span.note "conflicts" (string_of_int (s.conflicts - c0))
      end;
      r)

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.value";
  s.model.(v - 1) = 1

let lit_value s l = if l > 0 then value s l else not (value s (-l))

let failed_assumptions s = s.failed

let root_value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.root_value";
  if s.assign.(v - 1) < 0 || s.level.(v - 1) > 0 then None
  else Some (s.assign.(v - 1) = 1)

let clause_exts (c : clause) = Array.to_list (Array.map ext_of_int c.lits)

(* Newest first. *)
let learnt_clauses s =
  let out = ref [] in
  for i = 0 to s.learnts.len - 1 do
    let c = s.learnts.data.(i) in
    if not c.deleted then out := clause_exts c :: !out
  done;
  !out

let level0_assignments s =
  let out = ref [] in
  for i = s.trail_len - 1 downto 0 do
    let v = lit_var s.trail.(i) in
    if s.level.(v) = 0 then out := ext_of_int s.trail.(i) :: !out
  done;
  !out

(* Between-solve invariant audit; raises [Failure] with a description.
   Checks that the trail is fully unwound, that assignment/trail/level
   state is mutually consistent, that every live clause of size >= 2 is
   watched on exactly its first two literals and listed under each of its
   literals in the occurrence index, that the live counts are exact and
   that dead entries are within the compaction bound. *)
let check_invariants s =
  let fail fmt = Printf.ksprintf failwith fmt in
  if decision_level s <> 0 then fail "check_invariants: decision level %d" (decision_level s);
  if s.qhead <> s.trail_len then
    fail "check_invariants: qhead %d != trail length %d" s.qhead s.trail_len;
  (* Trail vs assignment. *)
  let on_trail = Array.make s.nvars false in
  for i = 0 to s.trail_len - 1 do
    let l = s.trail.(i) in
    let v = lit_var l in
    if on_trail.(v) then fail "check_invariants: var %d twice on trail" (v + 1);
    on_trail.(v) <- true;
    if lvalue s l <> 1 then fail "check_invariants: trail literal %d not true" (ext_of_int l);
    if s.level.(v) <> 0 then
      fail "check_invariants: var %d at level %d after unwind" (v + 1) s.level.(v)
  done;
  for v = 0 to s.nvars - 1 do
    if s.assign.(v) >= 0 && not on_trail.(v) then
      fail "check_invariants: var %d assigned but not on trail" (v + 1)
  done;
  if s.dirty_lits <> [] then fail "check_invariants: watch arrays left unswept";
  (* The occurrence index is the registry of live clauses.  Index them
     densely, so the audit costs the live database rather than the
     session's history of clause ids. *)
  let nlits = 2 * s.nvars in
  let index = Hashtbl.create 256 in
  let live = ref [] in
  let occ_live = ref 0 and occ_dead = ref 0 in
  for l = 0 to nlits - 1 do
    let occ = s.occs.(l) in
    for i = 0 to occ.len - 1 do
      let c = occ.data.(i) in
      if c.deleted then incr occ_dead
      else begin
        incr occ_live;
        if not (Hashtbl.mem index c.cid) then begin
          Hashtbl.replace index c.cid (Hashtbl.length index);
          live := c :: !live
        end
      end
    done
  done;
  if !occ_live <> s.occ_live then
    fail "check_invariants: occ_live %d but %d live occurrence entries" s.occ_live
      !occ_live;
  if !occ_dead <> s.occ_dead then
    fail "check_invariants: occ_dead %d but %d dead occurrence entries" s.occ_dead
      !occ_dead;
  if s.occ_dead > s.occ_live + compact_slack then
    fail "check_invariants: occurrence index holds %d dead entries for %d live" s.occ_dead
      s.occ_live;
  let idx what l (c : clause) =
    match Hashtbl.find_opt index c.cid with
    | Some k -> k
    | None ->
        fail "check_invariants: clause #%d %s %d is not in the occurrence index" c.cid what
          (ext_of_int l)
  in
  let nc = Hashtbl.length index in
  (* Per live clause: watch entries on literal 0 / literal 1, occurrence
     entries, last literal listing it. *)
  let w0 = Array.make nc 0 and w1 = Array.make nc 0 in
  let occ_n = Array.make nc 0 and last = Array.make nc (-1) in
  (* Each live clause listed once under each of its own literals: an entry
     under a literal it lacks, or a repeat under one literal, fails; a
     count equal to its size then covers them all. *)
  for l = 0 to nlits - 1 do
    let occ = s.occs.(l) in
    for i = 0 to occ.len - 1 do
      let c = occ.data.(i) in
      if not c.deleted then begin
        let k = idx "listed under" l c in
        if not (Array.exists (fun q -> q = l) c.lits) then
          fail "check_invariants: clause #%d listed under absent literal %d" c.cid
            (ext_of_int l);
        if last.(k) = l then
          fail "check_invariants: clause #%d listed twice under %d" c.cid (ext_of_int l);
        last.(k) <- l;
        occ_n.(k) <- occ_n.(k) + 1
      end
    done
  done;
  for l = 0 to nlits - 1 do
    let ws = s.watches.(l) in
    for i = 0 to ws.len - 1 do
      let c = ws.data.(i) in
      if c.deleted then
        fail "check_invariants: deleted clause #%d still watched on %d" c.cid
          (ext_of_int l);
      let k = idx "watched on" l c in
      if c.lits.(0) = l then w0.(k) <- w0.(k) + 1
      else if c.lits.(1) = l then w1.(k) <- w1.(k) + 1
      else
        fail "check_invariants: clause #%d watched on literal %d not in first two" c.cid
          (ext_of_int l)
    done
  done;
  let n_orig = ref 0 and n_learnt = ref 0 in
  List.iter
    (fun (c : clause) ->
      let k = Hashtbl.find index c.cid in
      if c.learnt then incr n_learnt else incr n_orig;
      if w0.(k) <> 1 || w1.(k) <> 1 then
        fail "check_invariants: clause #%d has %d/%d watch entries" c.cid w0.(k) w1.(k);
      if occ_n.(k) <> Array.length c.lits then
        fail "check_invariants: clause #%d of size %d has %d occurrence entries" c.cid
          (Array.length c.lits) occ_n.(k))
    !live;
  if !n_orig <> s.nclauses then
    fail "check_invariants: nclauses %d but %d live original clauses" s.nclauses !n_orig;
  if !n_learnt <> s.n_learnts then
    fail "check_invariants: n_learnts %d but %d live learnt clauses" s.n_learnts !n_learnt;
  (* The learnt store: exactly the live learnt clauses, bounded dead
     entries. *)
  let store_live = ref 0 and store_dead = ref 0 in
  for i = 0 to s.learnts.len - 1 do
    let c = s.learnts.data.(i) in
    if not c.learnt then
      fail "check_invariants: original clause #%d in the learnt store" c.cid;
    if c.deleted then incr store_dead
    else begin
      incr store_live;
      ignore (idx "in the learnt store, literal" c.lits.(0) c : int)
    end
  done;
  if !store_live <> s.n_learnts then
    fail "check_invariants: n_learnts %d but the learnt store holds %d live" s.n_learnts
      !store_live;
  if !store_dead <> s.learnts_dead then
    fail "check_invariants: learnts_dead %d but %d dead store entries" s.learnts_dead
      !store_dead;
  if s.learnts_dead > s.n_learnts + compact_slack then
    fail "check_invariants: learnt store holds %d dead entries for %d live" s.learnts_dead
      s.n_learnts;
  (* Swept level-0 facts list no clause any more. *)
  for i = 0 to s.simplified_at - 1 do
    let l = s.trail.(i) in
    if s.occs.(l).len <> 0 then
      fail "check_invariants: swept level-0 literal %d still lists clauses" (ext_of_int l)
  done
