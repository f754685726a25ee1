(** 64-bit structural hashing primitives for content-addressed signatures.

    Everything in [dfm_incr] is keyed by 64-bit hashes built from these
    mixers, and {!Journal} checksums its records with them.  The scheme is
    a splitmix64-style avalanche ({!finalize}) over an order-dependent
    accumulator ({!mix}), plus an order-*independent* combiner
    ({!combine_unordered}) for multisets such as the sink lists of a net.  All functions are pure and allocation-free on the hot path.

    These are content hashes, not cryptographic ones: collisions are
    possible in principle (probability ~n²/2⁶⁵ for n distinct keys) and the
    verdict store accepts that risk, as any content-addressed cache does. *)

val finalize : int64 -> int64
(** The splitmix64 finalizer: a bijective avalanche over 64 bits. *)

val mix : int64 -> int64 -> int64
(** [mix acc v] folds [v] into the accumulator; order-dependent. *)

val of_int : int -> int64

val of_bool : bool -> int64

val of_string : string -> int64
(** FNV-1a over the bytes, then avalanched. *)

val of_int_list : int list -> int64
(** Order-dependent hash of an int list (length included). *)

val combine : int64 -> int64 list -> int64
(** [combine seed hs] folds [hs] left-to-right into [seed] with {!mix}. *)

val combine_unordered : int64 list -> int64
(** Multiset hash: invariant under permutation of the list, sensitive to
    multiplicity.  Used where a canonical order would otherwise have to be
    invented (e.g. the sinks of a net). *)

val to_hex : int64 -> string
(** 16-digit lowercase hex, for logs and debugging. *)
