(** Hot-data-stream detection from memory traces (the analysis step of
    Figure 8).

    Pipeline: select hot objects (Figure 1), prune the access trace to
    those objects (collapsing consecutive repeats, which carry no
    inter-object locality information), then mine recurring object
    sequences:

    - [Lcs] (the paper's choice, §3.1): find the dominant repeat
      periods of the pruned sequence by autocorrelation, then compute
      longest common subsequences between windows one period apart;
      temporally-coherent runs of the LCS are the candidate streams.
      Short fixed chains that recur at irregular distances are picked
      up by a complementary frequent-n-gram pass.
    - [Sequitur] (the original HDS work's choice): infer a grammar and
      read the streams off the repeated rules.

    The result is the ordered HDS list (OHDS) that feeds Algorithm 1. *)

type method_ = Lcs | Sequitur

type config = {
  coverage : float;  (** hot-object selection coverage target (default 0.9) *)
  segment : int;  (** LCS window length (default 256) *)
  max_gap : int;  (** max positional gap within one stream (default 4) *)
  min_occurrences : int;  (** occurrences for a candidate to count (default 2) *)
  max_streams : int;  (** cap on returned streams (default 64) *)
  max_stream_len : int;  (** cap on objects per stream (default 32) *)
  max_lag : int;  (** autocorrelation search horizon (default 16384) *)
  max_periods : int;  (** number of candidate periods to mine (default 3) *)
  windows_per_lag : int;  (** LCS windows sampled per period (default 32) *)
  ngram_max : int;  (** longest n-gram mined alongside the LCS (default 4) *)
  ngram_min_hits : int;  (** occurrence floor for n-gram candidates (default 6) *)
}

val default_config : config

(** {b Spans.}  Each kernel below runs under a span of its own (category
    ["hds"]): ["hot-sequence"], ["periods"], ["lcs-mining"] (the LCS
    window comparisons) and ["ngram-mining"], so a detection's time splits
    by kernel in obs reports. *)

val hot_sequence : Prefix_trace.Trace_stats.t -> Prefix_trace.Trace.t -> int array
(** The pruned hot-object access sequence: object ids of accesses to hot
    objects with consecutive duplicates collapsed.  It is collected in
    one growable int buffer. *)

val hot_sequence_stream :
  Prefix_trace.Trace_stats.t -> Prefix_trace.Stream.t -> int array
(** Same pruned sequence off a segment stream — the trace is never
    materialized, only the (much smaller) pruned sequence is. *)

val dominant_periods : ?config:config -> int array -> int list
(** Candidate repeat periods of a sequence, smallest first (exposed for
    tests).  A lag is strong when at least half of [total] sampled
    positions [i] (every [stride]-th of the [span = n - lag] positions,
    [stride = max 1 (span / 192)], so [total = ceil (span / stride)])
    satisfy [seq.(i) = seq.(i + lag)].  Lags are tried in ascending order
    up to [min max_lag (n / 2)]; a lag is chosen when it is strong and not
    a near-multiple of a chosen one, until [max_periods] are chosen.

    {b Early exit.}  Only strong lags matter, so a lag's scan stops as
    soon as its misses exceed [total - ceil (total / 2)], near-multiples
    of chosen lags are not scanned at all, and the search stops once
    [max_periods] lags are chosen.  The result equals the full scan's. *)

type candidate = { order : int list; mutable hits : int }
(** A mined stream candidate, keyed in the miners' tables by its sorted
    member list: [order] is the adjacency order first recorded for that
    object set, [hits] its occurrence count. *)

val mine_ngrams : config -> int array -> (int list, candidate) Hashtbl.t -> unit
(** [mine_ngrams config seq tbl] counts every k-gram of distinct objects
    in [seq] (k = 2 .. [ngram_max]) and merges those reaching the
    adaptive floor (at least [min_occurrences] and [ngram_min_hits], and
    at least 1/50 of the most frequent gram's count) into [tbl] (exposed
    for the differential test).

    {b Counting by naming.}  Objects are first mapped to dense symbols,
    numbered in order of first appearance (one hash lookup per position).
    A k-gram's name is then the pair (symbol of its first object, name of
    the (k-1)-gram after it).  The (k-1)-grams are kept grouped by name,
    names ascending and positions ascending within a name.  Walking them
    and stepping each position back by one yields the k-gram candidates
    in suffix-name order, and one stable counting sort by first symbol
    groups equal k-grams with positions ascending.  Each run of equal
    keys is one distinct gram: its length is the count, its first entry
    the first position, and its index the gram's name at level k.  A
    k-gram has distinct objects iff both of its (k-1)-grams do and its
    end objects differ, which one byte per position tracks.  No gram is
    hashed: the working memory is three int arrays and one byte array of
    [seq]'s length plus one count and one table entry per symbol, and
    lists are built only
    for grams that clear the floor.  The most frequent gram is a 2-gram (a
    gram occurs at most as often as its prefix), so the floor is known
    after k = 2.  The number of distinct grams is exact, as the contract
    below needs.  Raises [Invalid_argument] when [seq] is longer than
    2{^ 31} (positions and names share one int).

    {b Candidate-order contract.}  Frequent grams are merged into [tbl]
    in one fixed order, and when several permutations of one object set
    are frequent, the first merged sets the candidate's [order] (later
    ones only add hits).  The order is the one in which the original
    miner's [Hashtbl.iter] visited its gram table: ascending bucket
    [Hashtbl.hash gram land (b - 1)], then most recently first seen
    first, where first-seen runs over k ascending, then position
    ascending, and [b] starts at 4096 and doubles while the number of
    distinct grams (all k together) exceeds [2 b].  Changing this order
    changes stream orders, and with them layouts and reports. *)

val detect :
  ?config:config -> ?method_:method_ -> Prefix_trace.Trace.t -> Hds.t list
(** OHDS: detected streams in descending order of memory references.
    Streams have at least two member objects. *)

val detect_with_stats :
  ?config:config ->
  ?method_:method_ ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  Hds.t list
(** Same, reusing an existing analysis to avoid a second trace pass. *)

val detect_stream :
  ?config:config ->
  ?method_:method_ ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Stream.t ->
  Hds.t list
(** {!detect_with_stats} off a segment stream: identical OHDS (the
    miners run on the same pruned sequence), bounded trace memory. *)
