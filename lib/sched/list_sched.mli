(** Resource-constrained list scheduling.

    Classic critical-path list scheduling of one loop iteration on an
    in-order EPIC machine: ops become ready when all distance-0 predecessors
    have issued and their latencies have elapsed; the ready op with the
    greatest height (latency-weighted longest path to any sink) issues at
    the earliest cycle with a free slot of its unit class and spare issue
    width; among ready ops of equal height the one at the lower body
    position goes first.  Unpipelined divides occupy their unit for their
    full latency. *)

val schedule : ?memo:Deps_memo.t -> Machine.t -> Loop.t -> Schedule.t
(** Always succeeds; register pressure fields are filled by
    {!Regalloc.allocate}, so they are 0 here and [spills] is 0.  The
    dependence graph is built by {!Deps_memo.get} ([memo] is ignored) and
    its CSR rides on the result for the simulator. *)
