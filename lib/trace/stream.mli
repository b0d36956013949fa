(** Streaming, bounded-memory traces.

    A stream represents an event source as a generator of fixed-size
    packed segments ({!Packed.t} chunks filled from one reused
    {!Packed.Buf}) instead of a single materialized array, so a pass
    over a trace of any length holds O([segment_events]) trace memory.

    Streams are {e re-iterable}: every {!iter_segments} (or derived
    consumer) re-runs the underlying generator from the start.  All
    the sources below are deterministic, so repeated passes observe
    identical events. *)

type t

val default_segment_events : int
(** 65536 events per segment. *)

val create : ?segment_events:int -> ((Event.t -> unit) -> unit) -> t
(** [create gen] wraps a push-based event generator: each iteration
    calls [gen push] and [gen] must call [push] once per event, in
    order.  Raises [Invalid_argument] when [segment_events <= 0]. *)

val segment_events : t -> int

val iter_segments : t -> (base:int -> Packed.t -> unit) -> unit
(** One pass: the callback receives each segment together with the
    global index of its first event ([base]).  Segments share one
    reused buffer — they are valid only for the duration of the
    callback and must not be retained. *)

val iter_events : t -> (int -> Event.t -> unit) -> unit
(** Boxed per-event iteration (cold paths / tests); the [int] is the
    global event index. *)

val fold_segments : t -> init:'a -> f:('a -> base:int -> Packed.t -> 'a) -> 'a

val length : t -> int
(** Total event count; consumes one full pass. *)

(** {1 Sources} *)

val of_trace : ?segment_events:int -> Trace.t -> t

val of_packed : ?segment_events:int -> Packed.t -> t
(** Segments are produced by array blits from the packed trace — no
    per-event boxing. *)

val of_binary_file : ?segment_events:int -> string -> t
(** Streams a columnar (v3) container ({!Columnar}) frame by frame:
    each frame decodes into flat columns and is blitted into the
    segment buffer — no per-event boxing.  A segment is cut at every
    frame boundary (and whenever the buffer fills), so stream segment
    boundaries — and therefore checkpoint boundaries — coincide with
    the file's integrity-check units.

    The file is mapped once ({!Prefix_util.Bigio.load}) and decoded
    straight from the mapping — no channel, no payload copies, and
    re-iteration costs no re-read.  A file that cannot be mapped is
    read into memory instead.

    Iterating raises [Failure "<path>: <msg>"] on corruption or on any
    other container version (["unsupported version N (columnar is
    3)"]), [Sys_error] on open failure. *)

val prefetched : ?spawn:((unit -> unit) -> unit -> unit) -> t -> t
(** [prefetched t] overlaps decode with consumption: each pass spawns
    a producer that runs [t]'s generator one segment ahead, handing
    segments over through two alternating buffers (double-buffered
    scratch), so segment N+1 decodes while segment N is being
    consumed.  The emitted segment sequence is exactly [t]'s — same
    order, contents and boundaries — so downstream reports are
    byte-identical; memory is bounded by two extra segments.  [spawn]
    overrides how the producer is started (e.g. on a
    {!Prefix_parallel.Pool} worker via [Pool.submit]); it must run its
    argument exactly once, possibly concurrently, and the returned
    thunk must join it.  Defaults to [Domain.spawn]/[Domain.join].
    Consumer exceptions abort the producer and re-raise; producer
    exceptions (e.g. decode [Failure]) re-raise at the consumer after
    the handed-over segments are drained. *)

val to_columnar_file : ?frame_events:int -> t -> string -> unit
(** Spool the stream into a columnar (v3) container, one frame per
    segment (atomic write).  [of_binary_file] on the result replays
    the same segments. *)

(** {1 Sinks (materialize — for tests and small traces)} *)

val to_trace : t -> Trace.t

val to_packed : t -> Packed.t
(** Copies each segment's columns as it streams past and joins them:
    exactly [Packed.of_trace (to_trace t)], without boxing any event. *)
