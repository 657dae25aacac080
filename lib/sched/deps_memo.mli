(** Dependence graphs for the schedulers, the simulator and feature
    extraction: {!Deps.build} under the machine's latency model, plus its
    CSR view.

    Nothing is retained; every call builds a fresh graph.  [t], {!global},
    {!clear} and the [?memo] arguments that name them are the remains of a
    graph store that was removed because it cost more than it saved
    (DESIGN.md §9); they are kept only because the benchmark harness still
    calls them, and do nothing. *)

type entry = { deps : Deps.t; csr : Deps.csr }

type t

val global : t

val get : ?memo:t -> Machine.t -> Loop.t -> entry
(** The dependence graph of the loop under the machine's latency model.
    Counts one ["misses"] under pass ["deps-memo"] in
    {!Telemetry.global} per graph built. *)

val deps : ?memo:t -> Machine.t -> Loop.t -> Deps.t
(** [(get ?memo machine loop).deps]. *)

val clear : t -> unit
(** No-op. *)
