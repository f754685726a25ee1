(** A persistent, incremental conflict-driven clause-learning (CDCL) SAT
    solver.

    This is the decision engine of the ATPG: fault-detection miters are
    encoded to CNF and solved here.  SAT yields a test pattern; UNSAT is a
    proof that the fault is undetectable (the property the whole paper is
    about).  The implementation is a classic CDCL with two-watched-literal
    propagation, first-UIP clause learning, VSIDS-style activity-based
    branching (heap-ordered) with phase saving, and Luby restarts.

    One instance is built for {e reuse}: clauses may be added between
    solves, each {!solve} may carry its own assumption literals, and the
    state left behind is always clean — the trail is fully unwound to
    level 0, a SAT answer survives in a model snapshot, an UNSAT answer
    under assumptions records its {!failed_assumptions}.  Learnt clauses
    persist across solves (that is where incremental reuse pays) and are
    kept in check by LBD/activity reduction sweeps plus on-the-fly
    subsumption during conflict analysis.

    A solve costs the search it does, not the session's history: watches
    are flat per-literal arrays, conflict analysis uses per-variable and
    per-level stamp arrays, and level-0 simplification is driven by a
    literal-to-clause occurrence index, visiting only the clauses of the
    facts fixed since the previous sweep.  Deleted clauses are dropped
    lazily under an amortised compaction bound.  This representation
    keeps the search trajectory of the list-based solver it replaced —
    same decisions, propagation order, conflicts, learnt clauses, models,
    {!failed_assumptions} and trace events — which the "pinned search
    trajectory" test of [test/test_sat_incr.ml] asserts through the
    effort counters.

    Literals in the public API are non-zero integers in DIMACS convention:
    [+v] is variable [v], [-v] its negation, variables start at 1. *)

type t

type result =
  | Sat
  | Unsat
  | Unknown  (** conflict budget exhausted *)

(** Clausal derivation trace, the raw material for UNSAT certificates
    (see {!Cert}).  [Trace_original] fires for every clause given to
    {!add_clause} (verbatim, pre-normalization); [Trace_learnt] fires for
    every clause the search derives — including learnt units and the empty
    clause — with the asserting literal first.  Each learnt clause is a
    resolvent of previously traced clauses, so the stream is a DRUP-style
    proof independent of any query's assumptions.  Clause deletions are
    not traced; a consumer that keeps everything stays sound. *)
type trace_event = Trace_original of int list | Trace_learnt of int list

val create : ?counted:bool -> unit -> t
(** [counted] (default [true]): whether this instance's effort flushes
    into the process-wide {!totals} and metrics.  Certificate-checking
    helpers pass [~counted:false] so verification work never perturbs
    campaign effort accounting. *)

val set_trace : t -> (trace_event -> unit) option -> unit
(** Install (or remove) the derivation tracer.  The callback runs inline
    on the search path; keep it cheap. *)

val new_var : t -> int
(** Allocate and return the next variable index. *)

val num_vars : t -> int

val ensure_vars : t -> int -> unit
(** Make sure variables [1 .. n] exist. *)

val add_clause : t -> int list -> unit
(** Add a clause (a disjunction of literals).  Adding the empty clause makes
    the instance trivially unsatisfiable.  May be called freely between
    solves; any leftover search state is unwound first. *)

val solve : ?assumptions:int list -> ?max_conflicts:int -> t -> result
(** Solve under optional assumption literals.  [max_conflicts] bounds the
    search; default is unbounded (the benches rely on full proofs).

    Assumptions are placed as pseudo-decisions on levels [1 .. n] before
    ordinary branching; a conflict at or below those levels means the CNF
    contradicts the assumptions and yields [Unsat] with
    {!failed_assumptions} filled in.  Whatever the result, the solver
    returns with its trail fully unwound to level 0 — assumptions never
    leak into later solves ({!check_invariants} audits this). *)

val value : t -> int -> bool
(** Value of a variable in the model snapshot of the last [Sat] answer.
    Only meaningful after [Sat]; unaffected by later clause additions. *)

val lit_value : t -> int -> bool
(** Value of a literal in the last model. *)

val failed_assumptions : t -> int list
(** After an [Unsat] answer of a solve {e under assumptions}: a subset of
    those assumptions whose conjunction the CNF already contradicts
    (Minisat's final conflict clause).  Empty when the CNF itself is
    unsatisfiable, and after solves that did not end [Unsat]. *)

val focus_vars : t -> int list -> unit
(** Bump the given variables (1-based ids; unknown ids ignored) to the top
    of the branching order.  Incremental sessions call this with a new
    query's private variables so the search settles the fresh cone before
    wandering the shared CNF.  Purely heuristic: answers are unaffected. *)

val root_value : t -> int -> bool option
(** The variable's fixed value at decision level 0, if any: [Some b] when
    the CNF (plus learnt facts) forces it, [None] while it is still free.
    Used by session layers to retire garbage variables safely. *)

val num_clauses : t -> int

val num_learnts : t -> int
(** Live learnt clauses currently retained. *)

val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int
(** Per-instance effort counters.  Counting is unconditional (it happens
    whether or not observability is enabled), so effort numbers never
    depend on instrumentation state. *)

val totals : unit -> int * int * int
(** Process-wide [(conflicts, decisions, propagations)] accumulated across
    every solver instance in every domain, flushed once per {!solve}.
    Deltas of these totals over a fixed query set are order-independent,
    hence identical at any [--jobs] count. *)

(** {1 Debug / test support} *)

val check_invariants : t -> unit
(** Audit the between-solve invariants: trail fully unwound (level 0,
    propagation queue drained), assignment/trail consistency; every watch
    array holding exactly its live watchers, no duplicates, with every
    live clause of size >= 2 watched on exactly its first two literals;
    every live clause listed once under each of its literals in the
    occurrence index; exact live clause and learnt counts; and dead
    entries of every store within the compaction bound.
    @raise Failure with a description on any violation.  Intended for the
    test suite; cost is linear in the variables and the clause database. *)

val learnt_clauses : t -> int list list
(** The live learnt clauses, as external literals.  Every one is a logical
    consequence of the clauses added so far — the property test re-proves
    this against a fresh solver. *)

val level0_assignments : t -> int list
(** Literals fixed at decision level 0 (units and their propagations), in
    assignment order. *)
