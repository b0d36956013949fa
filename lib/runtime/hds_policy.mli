(** The HDS [8] baseline transformation (§3.2: "exploits only those
    HDSs constructed by the technique in [8], that is, HDSs are not
    reconstituted").

    Profile side: the malloc sites that allocate members of any
    detected (non-reconstituted) hot data stream become "interesting".
    Runtime side: {e every} allocation from an interesting site is
    redirected to a separate bump region — the signature is the static
    site id alone, so all the site's other objects follow along.  That
    is the pollution the paper measures in Table 4, and the absence of
    any runtime check is Table 1's "no checks and no overhead". *)

type plan = { interesting_sites : int list }

val plan_of_ohds : Prefix_trace.Trace_stats.t -> Prefix_hds.Hds.t list -> plan
(** The plan for an already-detected OHDS: the allocation sites of its
    member objects.  The harness passes the profile's shared detection
    ({!Prefix_core.Pipeline.detect}), so HDS mining runs once for the
    three PreFix plans and this one. *)

val plan_of_trace :
  ?detector:Prefix_hds.Detector.config ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  plan
(** Detect with the [Lcs] method (default detector config), then
    {!plan_of_ohds}. *)

val policy :
  ?mode:Policy.mode ->
  ?region_cap:int ->
  Costs.t ->
  Prefix_heap.Allocator.t ->
  plan ->
  Policy.classification ->
  Policy.t
(** [mode] (default [Strict]) controls what happens when the bump
    region is exhausted (only possible with [region_cap], a byte cap on
    the region): strict raises, lenient degrades the allocation to
    plain malloc and counts it in [stats.degraded_fallbacks] and the
    [policy.region_exhausted] metric. *)
