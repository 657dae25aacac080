(** Iterative modulo scheduling (software pipelining).

    Implements Rau-style IMS: starting from
    MII = max(ResMII, RecMII), ops are placed by priority into a modulo
    reservation table, evicting conflicting ops with a bounded budget;
    failure bumps the initiation interval.  A candidate II is also rejected
    when the rotating-register requirement (sum over values of
    ceil(lifetime / II), plus loop invariants) exceeds the machine's
    register files — the way too-aggressive pipelining manifests as register
    pressure on Itanium.

    Loops containing calls or early exits are not pipelined (as in ORC);
    [schedule] returns [None] and the caller falls back to list scheduling.

    Every def costs at least one rotating register at any II and any
    placement, and every live-in one more, so a loop whose per-class
    [#defs + #live-ins] exceeds [rot_int_regs] or [rot_fp_regs] fits at no
    II.  [schedule] rejects such a loop up front, before dependence
    analysis and the II search, with the same [None] the search would
    return (soundness note in DESIGN.md §7). *)

val rec_mii : ?memo:Deps_memo.t -> Machine.t -> Loop.t -> int
(** Recurrence-constrained minimum II: the smallest II such that no
    dependence cycle has positive slack (weights [latency - II * distance]).
    Serial edges are excluded (the rotated branch is not a constraint).
    The search's upper bound is the sum of the graph's edge latencies —
    sound because every recurrence cycle spans at least one iteration — so
    recurrence-heavy loops report their true RecMII instead of saturating
    at an arbitrary constant. *)

val res_mii : Machine.t -> Loop.t -> int
(** Resource-constrained minimum II (see {!Machine.res_cycles}). *)

val schedule : ?max_ii:int -> ?memo:Deps_memo.t -> Machine.t -> Loop.t -> Schedule.t option
(** Pipelines the loop, trying II from MII upwards to [max_ii] (default
    128).  Returns [None] for loops that cannot or should not be pipelined,
    including loops over the rotating-register floor, which are rejected
    without building the dependence graph.  Otherwise the graph is built
    once per call via [memo] (default {!Deps_memo.global}) and shared by
    RecMII and placement.  Each call bumps one outcome counter of the
    ["modulo"] pass in {!Telemetry.global}: [not-pipelinable],
    [floor-rejects] or [exhausted] for a [None], plus one
    [ii-bumps-placement] or [ii-bumps-registers] per II the search skips. *)
