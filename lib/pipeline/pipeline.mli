(** The pass-pipeline compiler core.

    [compile] is the one entry point everything goes through —
    {!val:Simulator.compile} delegates here, so labelling sweeps, the
    experiment drivers and the CLI all share it.  Internally the compile
    path is an explicit list of registered {!pass}es over the typed
    {!Pipeline_state.state} record:

    {ol
    {- [unroll] — body replication with register renaming, remainder loop;}
    {- [rle] — redundant-load / dead-store elimination over the kernel;}
    {- [schedule] — list scheduling, or modulo scheduling with list
       fallback when SWP is on;}
    {- [regalloc] — pressure analysis and spill insertion (reschedules
       only when a spill forces it);}
    {- [assemble] — trip arithmetic, entry overhead and code-size
       accounting into an {!Pipeline_state.executable}.}}

    Each pass reports wall-time and its own metrics (op-count deltas,
    II, spills, code bytes) into a {!Telemetry} sink.  Every call
    compiles afresh: nothing here is memoised.  The labelling sweep
    memoises its measurements in {!Compile_cache} instead. *)

type pass = {
  pass_name : string;
  transform : Pipeline_state.state -> Pipeline_state.state * (string * int) list;
  (** The new state plus the metrics to accumulate for this invocation. *)
}

val default_passes : pass list
(** [unroll; rle; schedule; regalloc; assemble]. *)

val testing_phantom_trips : bool ref
(** Test-only: when set, the assembler reverts to the historical
    phantom-iteration bug (a zero-trip loop assembled as if it ran once).
    Reintroduced so the translation validator's refutation tests can
    prove they would catch it.  Never set outside tests; a sweep run
    while it is set would poison the shared {!Compile_cache} with its
    cycle counts. *)

val pass_names : string list
(** Names of {!default_passes}, in order. *)

val run :
  ?telemetry:Telemetry.t -> ?passes:pass list -> Pipeline_state.state ->
  Pipeline_state.state
(** Fold the state through the passes, timing each and recording its
    metrics under its name.  Telemetry defaults to {!Telemetry.global}. *)

val compile :
  ?telemetry:Telemetry.t -> Machine.t -> swp:bool -> Loop.t -> int -> Pipeline_state.executable
(** [compile machine ~swp loop u] runs {!default_passes} on a fresh
    {!Pipeline_state.init} and returns the executable. *)

val of_unrolled :
  ?telemetry:Telemetry.t ->
  Machine.t -> swp:bool -> Unroll.t -> outer_trip:int -> exit_prob:float ->
  Pipeline_state.executable
(** Enter the pipeline after the transform stages with an already-unrolled
    loop: schedule, allocate and assemble only.  Used by callers that
    perform their own transformations (tiling, hand-unrolled input). *)
