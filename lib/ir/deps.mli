(** Dependence analysis over a loop body.

    Produces the data-dependence graph used by the list scheduler, the
    modulo scheduler (software pipelining) and feature extraction.  Nodes
    are body positions; every edge carries a latency and an iteration
    {e distance}: a scheduling constraint
    [start dst >= start src + latency - II * distance].

    Register dependences are exact (virtual registers, single reaching def
    by position).  Memory dependences use the affine references: two direct
    references to the same array with equal strides either never alias or
    alias at a constant iteration distance; differing strides and indirect
    references degrade to conservative edges — an indirect reference may
    alias {e any} array, modelling unanalysable pointers. *)

type kind =
  | Reg_flow    (** true dependence through a register *)
  | Reg_anti    (** write-after-read *)
  | Reg_output  (** write-after-write *)
  | Mem_flow    (** store → load *)
  | Mem_anti    (** load → store *)
  | Mem_output  (** store → store *)
  | Control     (** ordering below an early-exit branch *)
  | Serial      (** serialisation: calls, and op → backedge delimiting *)

type edge = {
  src : int;       (** body position of the source op *)
  dst : int;       (** body position of the sink op *)
  dkind : kind;
  latency : int;
  distance : int;  (** iterations separating src and dst (>= 0) *)
}

type t = {
  n : int;                         (** number of ops *)
  edges : edge list;
  succs : edge list array;         (** outgoing edges per position *)
  preds : edge list array;         (** incoming edges per position *)
}

val build : latency:(Op.t -> int) -> Loop.t -> t
(** Builds the dependence graph.  [latency] maps an op to its result
    latency on the target machine (so the IR stays machine-independent).

    The order of [edges] is part of the contract: CSR edge indices follow
    it, and the modulo scheduler, the simulator's plans and {!Dag} read
    them.  Register edges lead the list, in the reverse of the order they
    are found: per op in body order and per register it reads
    (deduplicated, guard predicate included, in [compare] order on
    {!Op.reg}), the flow edge from its reaching def then the anti edge to
    the next def; then, per defined register in [compare] order, the
    output chain between successive defs and the wrap from the last def to
    the first.  Memory, control and serial edges follow, in that order. *)

type csr = {
  csr_n : int;            (** number of ops *)
  n_edges : int;
  e_src : int array;
  e_dst : int array;
  e_kind : int array;     (** {!kind_code} per edge *)
  e_lat : int array;
  e_dist : int array;
  succ_off : int array;   (** [csr_n + 1] offsets into [succ_edge] *)
  succ_edge : int array;  (** edge indices grouped by source op *)
  pred_off : int array;
  pred_edge : int array;
}
(** Flat int-array (CSR) view of the same graph: edge [i] of [edges] (in
    list order) occupies index [i] of every [e_*] array, and the adjacency
    arrays list edge indices grouped by endpoint.  The scheduling and
    simulation fixpoints iterate these instead of [edge] lists. *)

val to_csr : t -> csr

val kind_code : kind -> int
(** Stable small-int encoding of {!kind} used by [e_kind]
    ([Reg_flow] = 0 … [Serial] = 7). *)

val serial_code : int
val reg_flow_code : int

val intra_iteration : t -> t
(** Restriction to distance-0 edges — the per-iteration DAG consumed by
    list scheduling and DAG statistics.  The distance-0 subgraph is acyclic
    for any valid loop. *)

val has_cycle_at_distance_zero : t -> bool
(** Sanity check: true if the distance-0 subgraph contains a cycle (which
    would indicate a malformed loop or an analysis bug). *)
