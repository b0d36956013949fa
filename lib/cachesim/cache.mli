(** Set-associative cache with true-LRU replacement.

    One structure serves both the data caches and (with block size = page
    size) the TLBs.  Geometry matches the paper's testbed: 32 KB 8-way L1
    with 64 B lines and a 40 MB 20-way LLC (§3.2).

    {b Layout.}  All state is one [int array] of [sets * assoc] entries.
    Each set's [assoc] entries hold its resident lines in recency order:
    position 0 is the most recently used, the last position the least.
    An entry packs a line as [line lsl 1 lor dirty], so the write-back
    dirty bit is the low bit; [-1] marks an invalid (never filled)
    entry.  A hit at position [p] moves positions [0 .. p-1] down one
    and reinstalls the line at 0 (an MRU hit, [p = 0], is one compare
    and moves nothing).  A miss evicts the last position, counting a
    writeback if it was dirty, then shifts and installs at 0.

    {b Exactness.}  This is the textbook stamp model made implicit: the
    stamp model stamps a way with a strictly increasing clock on every
    touch, leaves invalid ways at stamp 0 and evicts the minimum stamp
    (lowest index on ties).  Valid stamps are unique, so recency order
    is a total order matching stamp order, and invalid ways only ever
    sit at the tail (a fill consumes the tail and shifts the rest).
    Hence the stamp model's victim — an invalid way while one exists,
    the oldest line otherwise — is always the tail here, and every
    hit/miss verdict and writeback count is identical to it.  The test
    suite keeps the stamp model as the oracle. *)

type t

val create : ?name:string -> size_bytes:int -> assoc:int -> line_bytes:int -> unit -> t
(** Raises [Invalid_argument] unless [line_bytes] is a power of two,
    [size_bytes] is divisible by [assoc * line_bytes] and the resulting
    set count is a power of two. *)

val create_entries : ?name:string -> entries:int -> assoc:int -> page_bytes:int -> unit -> t
(** TLB-style constructor: [entries] translation entries covering pages
    of [page_bytes]. *)

val name : t -> string
val sets : t -> int
val assoc : t -> int
val line_bytes : t -> int

val access : ?write:bool -> t -> int -> bool
(** [access t addr] simulates one reference; [true] = hit.  The line is
    installed (and the LRU way evicted) on a miss.  [write] marks the
    line dirty (write-back policy; default false). *)

val probe : t -> write:bool -> int -> bool
(** Exactly {!access} with [write] as a required labelled argument —
    the replay hot loop uses this to avoid boxing an option per
    memory reference. *)

val accesses : t -> int
val misses : t -> int

val writebacks : t -> int
(** Dirty lines evicted so far. *)

val miss_rate : t -> float
(** misses / accesses; 0 before the first access. *)

val reset_counters : t -> unit
(** Zero the hit/miss counters but keep cache contents (for warmup). *)

val flush : t -> unit
(** Invalidate all lines and zero counters. *)
