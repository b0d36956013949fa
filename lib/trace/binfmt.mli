(** Compact binary trace format.

    Profiling traces run to millions of events; the text format of
    {!Serialize} is convenient but ~16 bytes/event.  This format uses a
    one-byte tag plus LEB128 varints with per-field delta encoding
    (object ids and sites are strongly local), typically 3-5 bytes per
    event.  The format is self-describing: a 4-byte magic, a format
    version, then the event stream.

    Encoding details (little-endian varints, zig-zag for deltas):
    - tag 0: Alloc  (Δobj, Δsite, Δctx, size, thread)
    - tag 1: load   (Δobj, offset, thread)
    - tag 2: store  (Δobj, offset, thread)
    - tag 3: Free   (Δobj, thread)
    - tag 4: Realloc (Δobj, new_size, thread)
    - tag 5: Compute (instrs, thread)

    {b Format v1} is the legacy layout: header, total event count, then
    one undelimited event stream — a single flipped byte makes
    everything after it undecodable.

    {b Format v2} (framed) chunks the stream into length-prefixed
    frames, each carrying its own event count, the cumulative event
    count before it, and a CRC32 of its payload; the delta state resets
    at each frame so frames decode independently.  A checksummed footer
    records the frame/event totals, making truncation detectable.  The
    strict readers reject any corruption; {!read_lenient} skips corrupt
    frames (resynchronizing on the frame marker) and reports exactly
    which event ranges were lost.  Both versions are readable by
    {!read} / {!iter_big}.

    Every decoder reads a {!Prefix_util.Bigio.t} region holding the
    whole container: a file mapping for the [_file] and [_big] entry
    points, one copy of the input for the [bytes] ones.  The frame
    skeleton (["FRME"] frames, ["FEND"] footer) is walked by one strict
    and one lenient walk ({!walk_frames}, {!walk_frames_lenient}),
    shared with the columnar v3 container of {!Columnar}. *)
val magic : string
(** ["PFXT"]. *)

val version : int
(** 1 — the legacy unframed format, still written by {!write} and
    always readable. *)

val version_framed : int
(** 2 — the framed, checksummed format of {!write_framed}. *)

val default_frame_events : int
(** Events per frame when unspecified (65536, matching
    {!Stream.default_segment_events} so frame boundaries and stream
    segment boundaries coincide). *)

val frame_marker : string
(** ["FRME"] — starts every frame of a framed container (v2 and the
    columnar v3 of {!Columnar}). *)

val footer_marker : string
(** ["FEND"] — starts the checksummed totals footer. *)

(** {2 Wire primitives}

    The LEB128/zig-zag vocabulary shared by every container version
    (and by {!Columnar}'s per-column encodings).  Signed varints treat
    the zig-zag image as a full 63-bit unsigned pattern — logical
    shifts on both sides — so min_int/max_int-scale deltas round-trip;
    the unsigned getters still reject a decoded sign bit as corruption
    ("varint overflows"). *)

val put_uvarint : Buffer.t -> int -> unit
(** Append an unsigned LEB128 varint.  Raises [Invalid_argument] on a
    negative argument. *)

val put_varint : Buffer.t -> int -> unit
(** Append a signed (zig-zag) varint; total for all of [int]. *)

val put_u32le : Buffer.t -> int -> unit
(** Append a 32-bit little-endian word (checksums). *)

type cursor = { big : Prefix_util.Bigio.t; mutable pos : int; limit : int }
(** A decode position inside a container region; getters advance
    [pos] and never read at or past [limit]. *)

val get_uvarint : cursor -> (int, string) result
(** Decode an unsigned varint; [Error] on truncation, a value beyond 9
    bytes, or a set sign bit. *)

val get_varint : cursor -> (int, string) result
(** Decode a signed (zig-zag) varint; the sign bit is a legal payload
    bit here, so the whole [int] range round-trips. *)

val get_u32le : cursor -> (int, string) result

val write : Buffer.t -> Trace.t -> unit
(** Append the v1 encoding of the trace to a buffer. *)

val to_bytes : Trace.t -> bytes

val write_framed : ?frame_events:int -> Buffer.t -> Trace.t -> unit
(** Append the framed (v2) encoding.  Raises [Invalid_argument] when
    [frame_events <= 0]. *)

val to_bytes_framed : ?frame_events:int -> Trace.t -> bytes

val read : bytes -> (Trace.t, string) result
(** Decode either format version (one copy into a bigstring, then
    {!iter_big}); [Error] on bad magic, version, truncation, malformed
    varints, or (v2) any CRC/footer mismatch — the messages of
    {!iter_big}.  An input shorter than the magic reports
    ["empty or truncated file (offset N)"]. *)

val write_file : string -> Trace.t -> unit
(** v1 file writer (kept for compatibility). *)

val write_file_framed : ?frame_events:int -> string -> Trace.t -> unit
(** Framed (v2) file writer; the file is written via temp + atomic
    rename so a crash never leaves a truncated trace behind. *)

val read_file : string -> (Trace.t, string) result
(** {!read} over a mapping of the file ({!Prefix_util.Bigio.load}).
    Raises [Sys_error] if the file cannot be opened. *)

(** {2 Lenient framed decode} *)

type lost_range = { lost_from : int; lost_to : int }
(** Half-open range [\[lost_from, lost_to)] of original-stream event
    indices that could not be recovered. *)

type lenient = {
  lr_trace : Trace.t;  (** surviving events, in stream order *)
  lr_lost : lost_range list;  (** ascending, non-overlapping *)
  lr_frames_ok : int;
  lr_frames_skipped : int;  (** resynchronization count *)
  lr_total_events : int option;
      (** footer total when a valid footer was found; [None] means the
          file is truncated and the tail loss is unknowable *)
}

val read_lenient : bytes -> (lenient, string) result
(** Best-effort decode of a framed (v2) file: corrupt frames are
    skipped by scanning for the next frame marker, and each good
    frame's cumulative event count pins exactly which event ranges were
    lost.  [Error] only when the header itself is unusable (missing
    magic, not v2).  Callers typically hand [lr_trace] to
    {!Sanitizer.sanitize} to repair the dangling frees/accesses the
    lost ranges leave behind. *)

val read_file_lenient : string -> (lenient, string) result
(** {!read_lenient} over a mapping of the file. *)

val lenient_events_lost : lenient -> int
(** Total events in [lr_lost]. *)

val pp_lost_range : Format.formatter -> lost_range -> unit

(** {2 Streaming decode} *)

val iter_big :
  ?on_frame:(unit -> unit) -> Prefix_util.Bigio.t -> f:(Event.t -> unit) ->
  (unit, string) result
(** Strict v1/v2 decode of a whole container region: [f] is called once
    per event, no trace is materialized, and no payload is copied.
    Stops at the first corruption; an empty region reports
    ["empty or truncated file (offset N)"].  For v2 input [on_frame]
    fires after each frame's events (never for v1) — the streaming
    engine uses it to cut segments exactly at frame boundaries. *)

val big_version : Prefix_util.Bigio.t -> (int, string) result
(** Sniff a container's version (magic + version varint only): 1/2 are
    the formats decoded here, {!Columnar.version_columnar} is the
    columnar container.  [Error] on bad magic or truncation. *)

(** {2 The shared frame walk}

    After the header, v2 and v3 containers are the same skeleton:
    frames of (["FRME"], event count, cumulative event count, payload
    length, CRC32 of the payload, payload) and one footer of (["FEND"],
    frame count, event count, CRC32 of those two varints).  The walks
    below check that skeleton and hand each CRC-verified payload —
    bytes [\[pos, pos + plen)] of the region, holding [events] events —
    to a per-format [frame] callback.

    {b Error contract} of the strict walk, in the order checked: a
    missing footer (["truncated file (missing footer) at offset N"],
    [N] the region length), a bad marker, an implausible payload length
    or event count, a cumulative count other than the events decoded so
    far, a truncated checksum or payload, a frame CRC mismatch, then
    the callback's own [Error]; at the footer, a footer CRC mismatch,
    totals that disagree with the stream, or trailing bytes.  Frame
    offsets are the offset of the frame's marker. *)

val header : Prefix_util.Bigio.t -> (cursor * int, string) result
(** Check the magic and read the version varint; the cursor is left on
    the body (the first frame, or the v1 event count). *)

val walk_frames :
  cursor ->
  frame:(frame_off:int -> pos:int -> plen:int -> events:int -> (unit, string) result) ->
  (unit, string) result
(** Strict walk from [cursor] to the footer, which must end the region.
    [frame_off] is the offset of the frame's marker. *)

type walk_report = {
  lost : lost_range list;  (** ascending, non-overlapping *)
  frames_ok : int;
  frames_skipped : int;  (** resynchronization count *)
  total_events : int option;  (** footer total, when a valid footer was found *)
}

val walk_frames_lenient :
  cursor ->
  frame:(frame_off:int -> pos:int -> plen:int -> events:int -> ('a, string) result) ->
  keep:('a -> unit) ->
  walk_report
(** Best-effort walk: a frame whose header, CRC or [frame] decode fails
    is skipped by scanning byte by byte for the next marker, as is a
    frame whose cumulative count lies before events already kept.  A
    decoded frame is passed to [keep] at once (before the next [frame]
    call), in stream order; cumulative counts pin the lost ranges.
    Anything after the first valid footer is ignored. *)
