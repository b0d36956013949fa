(** Object recycling analysis (§2.4).

    Some sites allocate huge numbers of objects of which only a handful
    are simultaneously live (swissmap's "small group created, used,
    freed, repeated").  For such sites PreFix preallocates only [N]
    slots and maps instance ids onto them modulo [N] (Figure 7); a slot
    is reused only when its previous occupant is dead, so correctness
    never depends on the profile being right — overflow allocations
    simply fall back to malloc. *)

type decision = {
  n_slots : int;  (** slots preallocated for the group *)
  slot_bytes : int;  (** bytes per slot (max profiled object size) *)
}

type config = {
  min_total_allocs : int;
      (** recycling only pays off for sites with many allocations
          (default 64) *)
  max_live_ratio : float;
      (** max simultaneously-live / total must be below this
          (default 0.25) *)
  headroom : float;
      (** slot count = ceil(max_live * headroom) (default 1.25) *)
  max_slot_bytes : int;
      (** give up on groups of huge objects (default 1 MiB) *)
}

val default_config : config

val analyze :
  ?config:config ->
  Prefix_trace.Trace_stats.t ->
  sites:int list ->
  decision option
(** Decide whether the counter group owning [sites] should recycle:
    measures the combined maximum number of simultaneously live objects
    across those sites and compares it with the total allocation count
    per the thresholds above.  Reads each site's members
    ({!Prefix_trace.Trace_stats.site_members}), a site listed twice
    counting once. *)

val max_live_combined : Prefix_trace.Trace_stats.t -> int list -> int
(** Peak simultaneously-live object count across a set of sites
    (interval sweep over the profiled lifetimes). *)
