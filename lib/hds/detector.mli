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

val hot_sequence : Prefix_trace.Trace_stats.t -> Prefix_trace.Trace.t -> int array
(** The pruned hot-object access sequence: object ids of accesses to hot
    objects with consecutive duplicates collapsed. *)

val hot_sequence_stream :
  Prefix_trace.Trace_stats.t -> Prefix_trace.Stream.t -> int array
(** Same pruned sequence off a segment stream — the trace is never
    materialized, only the (much smaller) pruned sequence is. *)

val dominant_periods : ?config:config -> int array -> int list
(** Candidate repeat periods of a sequence, best first, by sampled
    autocorrelation (exposed for tests). *)

type candidate = { order : int list; mutable hits : int }
(** A mined stream candidate, keyed in the miners' tables by its sorted
    member list: [order] is the adjacency order first recorded for that
    object set, [hits] its occurrence count. *)

val mine_ngrams : config -> int array -> (int list, candidate) Hashtbl.t -> unit
(** [mine_ngrams config seq tbl] counts every k-gram of distinct objects
    in [seq] (k = 2 .. [ngram_max]) and merges those reaching the
    adaptive floor (at least [min_occurrences] and [ngram_min_hits], and
    at least 1/50 of the most frequent gram's count) into [tbl].  Counting
    allocates nothing per position (exposed for the differential test).

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
