module Solver = Dfm_sat.Solver

exception Parse_error of int * string

let parse text =
  let lines = String.split_on_char '\n' text in
  let nvars = ref 0 in
  let expected_clauses = ref (-1) in
  let clauses = ref [] in
  let current = ref [] in
  let seen_header = ref false in
  List.iteri
    (fun lineno raw ->
      let lineno = lineno + 1 in
      let line = String.trim raw in
      if line = "" || line.[0] = 'c' || line.[0] = '%' then ()
      else if line.[0] = 'p' then begin
        if !seen_header then raise (Parse_error (lineno, "duplicate p line"));
        seen_header := true;
        match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
        | [ "p"; "cnf"; nv; nc ] -> (
            try
              nvars := int_of_string nv;
              expected_clauses := int_of_string nc
            with Failure _ -> raise (Parse_error (lineno, "bad p cnf header")))
        | _ -> raise (Parse_error (lineno, "expected 'p cnf <vars> <clauses>'"))
      end
      else begin
        if not !seen_header then raise (Parse_error (lineno, "clause before p line"));
        List.iter
          (fun tok ->
            match int_of_string_opt tok with
            | None -> raise (Parse_error (lineno, "bad literal " ^ tok))
            | Some 0 ->
                clauses := List.rev !current :: !clauses;
                current := []
            | Some l ->
                if abs l > !nvars then
                  raise (Parse_error (lineno, "literal exceeds declared variables"));
                current := l :: !current)
          (String.split_on_char ' ' line |> List.filter (fun w -> w <> ""))
      end)
    lines;
  if !current <> [] then clauses := List.rev !current :: !clauses;
  let clauses = List.rev !clauses in
  if !expected_clauses >= 0 && List.length clauses <> !expected_clauses then
    raise (Parse_error (0, Printf.sprintf "declared %d clauses, found %d" !expected_clauses
                          (List.length clauses)));
  (!nvars, clauses)

let load solver text =
  let nvars, clauses = parse text in
  Solver.ensure_vars solver nvars;
  List.iter (Solver.add_clause solver) clauses

let to_string ~nvars clauses =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" nvars (List.length clauses));
  List.iter
    (fun c ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) c;
      Buffer.add_string buf "0\n")
    clauses;
  Buffer.contents buf

let solution_to_string solver = function
  | Solver.Unsat -> "s UNSATISFIABLE\n"
  | Solver.Unknown -> "s UNKNOWN\n"
  | Solver.Sat ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "s SATISFIABLE\nv ";
      for v = 1 to Solver.num_vars solver do
        Buffer.add_string buf (string_of_int (if Solver.value solver v then v else -v));
        Buffer.add_char buf ' '
      done;
      Buffer.add_string buf "0\n";
      Buffer.contents buf
