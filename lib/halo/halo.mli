(** HALO baseline: post-link heap layout optimisation (Savage & Jones,
    CGO 2020), reimplemented at the fidelity the paper's comparison
    needs.

    HALO disambiguates allocation-site instances by their calling
    context (a call-stack signature), groups contexts by access
    affinity, and redirects every allocation whose signature belongs to
    a group into that group's dedicated memory pool.  Two properties
    matter for the comparison with PreFix (§1, Table 1):

    - {e Imperfect separation}: every object allocated under a grouped
      signature goes to the pool, hot or not, so pools are polluted by
      cold objects sharing a calling context with hot ones.
    - {e No reordering}: pool objects appear in allocation order.

    The affinity analysis below follows the HALO recipe: contexts whose
    objects are accessed close together in the trace have high affinity
    and end up in the same group. *)

type plan = {
  groups : int list list;
      (** Each group is a list of call-stack signatures ([ctx] values)
          whose allocations share one pool. *)
  hot_ctxs : int list;
      (** All grouped signatures, flattened (for membership tests). *)
}

type config = {
  hot_ctx_coverage : float;
      (** Select contexts owning hot objects covering this fraction of
          heap accesses (default 0.9). *)
  affinity_window : int;
      (** Two accesses within this many heap accesses of each other
          count as affine (default 64). *)
  min_affinity : float;
      (** Minimum normalised affinity to merge two contexts into one
          group (default 0.1). *)
}

val default_config : config

val plan_of_trace :
  ?config:config ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  plan
(** Run the HALO profile analysis: pick hot contexts, build the
    affinity matrix over them, and group greedily by descending
    affinity. *)

val affinity_matrix :
  config ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  int list ->
  ((int * int) * float) list
(** [affinity_matrix config stats trace hot_ctxs]: the normalised
    affinity of every co-occurring pair [(a, b)] of hot contexts, [a < b],
    heaviest first (ties by pair).  Exposed for the differential test
    against the seed's table-based version. *)

val ctx_in_plan : plan -> int -> int option
(** [ctx_in_plan p ctx] is the group index the signature belongs to,
    if any — the runtime "check against a signature" of Table 1. *)
