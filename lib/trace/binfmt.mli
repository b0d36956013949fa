(** The frame envelope shared by the columnar container.

    An on-disk trace ({!Columnar}, format v3) is a 4-byte magic
    (["PFXT"]), a version varint, then a sequence of frames and one
    footer:
    - frame: ["FRME"], event count, cumulative event count before the
      frame, payload length, CRC32 of the payload, payload;
    - footer: ["FEND"], frame count, event count, CRC32 of those two
      varints.

    Frames decode independently, so a corrupt frame loses only its own
    events, and the checksummed footer makes truncation detectable.
    This module owns that layout in both directions — {!start} /
    {!add_frame} / {!finish} write it, {!walk_frames} /
    {!walk_frames_lenient} check it — plus the LEB128/zig-zag wire
    primitives the payload codec is built from.  What a payload holds
    is the codec's business. *)
val magic : string
(** ["PFXT"]. *)

val default_frame_events : int
(** Events per frame when unspecified (65536, matching
    {!Stream.default_segment_events} so frame boundaries and stream
    segment boundaries coincide). *)

val frame_marker : string
(** ["FRME"] — starts every frame. *)

val footer_marker : string
(** ["FEND"] — starts the checksummed totals footer. *)

(** {2 Wire primitives}

    The LEB128/zig-zag vocabulary of the frame headers and of
    {!Columnar}'s per-column encodings.  Signed varints treat
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

(** {2 Header} *)

val header : Prefix_util.Bigio.t -> (cursor * int, string) result
(** Check the magic and read the version varint; the cursor is left on
    the first frame.  An input shorter than the magic reports
    ["empty or truncated file (offset N)"]. *)

val big_version : Prefix_util.Bigio.t -> (int, string) result
(** Sniff a container's version (magic + version varint only).
    [Error] on bad magic or truncation. *)

(** {2 Writing frames} *)

type writer
(** A container being appended to a buffer: counts the events and
    frames written so far, for the cumulative counts and the footer. *)

val start : Buffer.t -> version:int -> writer
(** Append the magic and the version varint. *)

val add_frame : writer -> events:int -> Buffer.t -> unit
(** Append one frame whose payload (the buffer's contents) holds
    [events] events: marker, counts, payload length, CRC32, payload. *)

val finish : writer -> unit
(** Append the checksummed totals footer. *)

(** {2 Walking frames}

    The walks check the envelope and hand each CRC-verified payload —
    bytes [\[pos, pos + plen)] of the region, holding [events] events —
    to the payload codec's [frame] callback.

    {b Error contract} of the strict walk, in the order checked: a
    missing footer (["truncated file (missing footer) at offset N"],
    [N] the region length), a bad marker, an implausible payload length
    or event count, a cumulative count other than the events decoded so
    far, a truncated checksum or payload, a frame CRC mismatch, then
    the callback's own [Error]; at the footer, a footer CRC mismatch,
    totals that disagree with the stream, or trailing bytes.  Frame
    offsets are the offset of the frame's marker. *)

val walk_frames :
  cursor ->
  frame:(frame_off:int -> pos:int -> plen:int -> events:int -> (unit, string) result) ->
  (unit, string) result
(** Strict walk from [cursor] to the footer, which must end the region.
    [frame_off] is the offset of the frame's marker. *)

type lost_range = { lost_from : int; lost_to : int }
(** Half-open range [\[lost_from, lost_to)] of original-stream event
    indices that could not be recovered. *)

val pp_lost_range : Format.formatter -> lost_range -> unit

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
