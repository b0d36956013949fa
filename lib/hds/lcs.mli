(** Longest common subsequence over integer sequences.

    The paper (§3.1) replaces Sequitur with LCS for hot-data-stream
    mining: recurring access patterns are exactly the subsequences that
    consecutive trace segments have in common. *)

val lcs : int array -> int array -> int array
(** Classic O(nm) dynamic program; returns one longest common
    subsequence. *)

val lcs_with_positions : int array -> int array -> (int * int * int) list
(** The LCS as [(value, index_in_a, index_in_b)] triples, in order.  The
    traceback walks back from the end, taking a match when the
    characters are equal and the diagonal gives the length, else moving
    up when the cell above is at least the one to the left.

    {b Scratch reuse.}  The DP table is one flat [(n+1)(m+1)] int buffer
    that is kept and reused by later calls, so mining's many windows do
    not allocate a fresh table each (a matrix puts every row on the major
    heap).  The buffer only grows.

    {b Domain safety.}  Each domain has its own buffer ([Domain.DLS]),
    and a call takes it out of its slot for the duration, so calls on
    several domains of a pool, or overlapping calls on one domain, never
    share cells. *)

val length : int array -> int array -> int
(** Length of the LCS only, in O(nm) time and O(min n m) space. *)

val similarity : int array -> int array -> float
(** [2 * |lcs| / (|a| + |b|)] in [0,1]; 0 when either input is empty. *)

val split_runs : max_gap:int -> (int * int * int) list -> int list list
(** Cut a positioned common subsequence into temporally coherent runs:
    a new run starts whenever consecutive matches are more than
    [max_gap] apart in either original sequence. *)
