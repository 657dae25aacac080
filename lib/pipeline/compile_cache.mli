(** Content-addressed store of noise-free cycle counts.

    The labelling methodology measures every loop at eight unroll factors,
    and the experiment drivers re-enter the sweep with the same loops
    again and again.  [Measure.sweep] memoises each deterministic
    (noise-free) warm cycle count here, keyed by a digest of the loop's
    {e content} (its name is blanked, so identical loops under different
    names share entries), the unroll factor, the SWP flag, the full
    machine description and the simulation window.  Compiled executables
    are not kept: a hit skips both the compile and the two simulator
    runs, and a miss compiles afresh.

    All operations are mutex-protected: worker domains of the parallel
    labelling sweep share one cache.  The store holds at most 262,144
    counts and evicts oldest-first.  Hit/miss counters feed
    {!Telemetry.global} under the ["compile-cache"] pass. *)

type key = string
(** A content digest; cheap to compare and hash. *)

type t

val create : unit -> t

val global : t
(** The process-wide cache used by [Measure.sweep] by default. *)

val key : machine:Machine.t -> swp:bool -> factor:int -> Loop.t -> key
(** Digest of the quadruple.  Every field of the loop except its name and
    every field of the machine participate. *)

val find_cycles : t -> key -> max_sim_iters:int option -> int option
(** The memoised noise-free measurement for the keyed compile under the
    given simulation window (the window changes the extrapolation, so it
    is part of the lookup). *)

val store_cycles : t -> key -> max_sim_iters:int option -> int -> unit

val hits : t -> int
val misses : t -> int
(** Lookup counters since creation (or {!clear}). *)

val clear : t -> unit
(** Drop all entries and zero the counters. *)
