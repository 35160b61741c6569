(** Incremental timing: keep arrival labels valid across gate resizes.

    A from-scratch Bellman-Ford is O(N+E) per edit; the statistical
    sizing optimizer ([Ssta_core.Sizing]) still pays it, re-timing each
    round with {!Graph.with_drives} and {!Sta.of_graph}.  This engine
    maintains the arrival labels under drive-strength edits with a
    worklist that only touches the affected fan-out cone (plus the
    edited gate's fan-ins, whose loads change), which is how production
    timers make optimization loops tractable.

    Equivalence with the from-scratch computation is enforced by
    property tests over random edit sequences. *)

type t

val create : ?wire_cap:float -> Ssta_circuit.Netlist.t -> t
(** All drives start at 1.0. *)

val arrival : t -> int -> float
(** Current arrival label of a node. *)

val delay : t -> int -> float
(** Current gate delay of a node (0 for inputs). *)

val drive : t -> int -> float

val critical_delay : t -> float
(** Max arrival over the primary outputs. *)

val set_drive : t -> int -> float -> int
(** [set_drive t id d] changes gate [id]'s drive strength, re-evaluates
    the delays of [id] and of its fan-in gates (their loads changed),
    and repropagates arrivals through the affected cone.  Returns the
    number of nodes whose arrival changed.  Raises [Invalid_argument]
    for primary inputs or non-positive drives. *)

val labels_reference : t -> float array
(** From-scratch labels on an equivalent graph (for validation). *)

val to_graph : t -> Graph.t
(** Snapshot of the current state as an ordinary timing graph. *)
