(** DIMACS CNF interchange for the SAT solver.

    Lets the tests drive {!Dfm_sat.Solver} with standard CNF text and
    render its answers in the standard result format. *)

exception Parse_error of int * string

val parse : string -> int * int list list
(** [parse text] reads a DIMACS [p cnf] body and returns
    (variable count, clauses).  Comments ([c] lines) and [%]/[0] trailers
    are tolerated.  @raise Parse_error with a line number on bad syntax. *)

val load : Dfm_sat.Solver.t -> string -> unit
(** Parse and add every clause to a solver. *)

val to_string : nvars:int -> int list list -> string
(** Render clauses in DIMACS format. *)

val solution_to_string : Dfm_sat.Solver.t -> Dfm_sat.Solver.result -> string
(** A standard ["s SATISFIABLE"/"v ..."] result block. *)
