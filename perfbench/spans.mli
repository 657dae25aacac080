(** In-memory spans for the benchmark's traced runs.

    A span is one timed call into a layer, recorded from the benchmark's
    own code around a public entry point.  Spans nest: a span opened while
    another is open becomes its child.  Nothing is written until the run
    ends; {!to_chrome} then renders the spans as Chrome trace-event JSON.

    A span's self time is its duration minus the part of its interval
    that its children cover.  Children are merged as a union first, so two
    overlapping children are not subtracted twice. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; [-1] for a root *)
  name : string;
  start : float;  (** seconds on the monotonic clock *)
  stop : float;
}

type t

val create : ?enabled:bool -> unit -> t
(** A recorder.  When [enabled] is [false] (default [true]),
    {!with_span} only calls its function: the untraced twin of a traced
    run executes the same code without recording anything. *)

val now : unit -> float
(** Monotonic clock, in seconds. *)

val with_span : t -> ?rename:('a -> string) -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span called [name].  [rename],
    applied to [f]'s result, renames the span when it closes (to split a
    layer's calls by outcome).  A span whose function raises is still
    recorded, under [name]. *)

val spans : t -> span list
(** Every closed span, in the order they were opened. *)

val union_length : (float * float) list -> float
(** Total length covered by a set of [(start, stop)] intervals. *)

val self_times : span list -> (span * float) list
(** Each span with its self time: duration minus the union of its
    children's intervals, clipped to the span. *)

type stat = { count : int; inclusive : float; self : float }

val by_name : span list -> (string * stat) list
(** Spans grouped by name, in first-seen order. *)

val check_root : span list -> (float * float, string) result
(** [Ok (root_inclusive, sum_of_self)] when the spans form one tree whose
    root's duration equals the sum of every span's self time within 1% of
    the root's duration.  Spans from one {!t} always pass: the recorder is
    stack-based, so children nest inside their parent and siblings never
    overlap. *)

val to_chrome : span list -> string
(** Chrome trace-event JSON ([chrome://tracing], Perfetto): one complete
    ["X"] event per span, timestamps in microseconds from the first span. *)
