(** BDD-based combinational equivalence checking of two netlists.

    Two netlists are compared on the full-scan combinational view: the
    controllable points ({!Dfm_netlist.Netlist.input_nets}) are matched by
    label and the observable points ({!Dfm_netlist.Netlist.observe_nets})
    must compute identical functions.  This is the independent oracle used in tests to confirm that
    technology mapping and the resynthesis procedure preserve circuit
    function (the SAT miter {!Dfm_atpg.Equiv_sat} is the production check). *)

type verdict =
  | Equivalent
  | Different of string  (** label of a mismatching observable point *)
  | Interface_mismatch of string

val check : Dfm_netlist.Netlist.t -> Dfm_netlist.Netlist.t -> verdict

val output_function : Dfm_netlist.Netlist.t -> (string * Dfm_logic.Truthtable.t) list
(** Truth tables of all observable points of a netlist with at most 6
    controllable points; raises [Invalid_argument] above that. *)
