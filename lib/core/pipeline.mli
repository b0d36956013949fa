(** End-to-end PreFix planning: trace in, optimization plan out
    (the analysis half of Figure 8).

    Steps: hot-object selection → HDS detection (LCS or Sequitur) →
    Algorithm 1 reconstitution → placement order per variant → site
    promotion (sites whose allocations are almost all hot are treated
    as "all ids" sites) → counter sharing → recycling analysis →
    offset assignment → plan.

    The first steps do not depend on the variant: a {!profile} holds
    them (the analysis, the hot selection, per-site member arrays and
    the liveness intervals), built once per profiling trace and shared
    by every plan made from it. *)

type slot_mode =
  | Modulo  (** Figure 7: slot = (id - 1) mod N *)
  | Interval
      (** greedy interval-graph coloring over profiled liveness
          intervals ({!Intervals.slot_assignment}); instances outside
          the profile fall back to modulo *)

val slot_mode_name : slot_mode -> string
(** ["modulo"] / ["interval"] — the CLI's [--slots] values. *)

type config = {
  coverage : float;  (** hot-object coverage target (default 0.95) *)
  detector : Prefix_hds.Detector.config;
  method_ : Prefix_hds.Detector.method_;  (** default [Lcs] (§3.1) *)
  counter_sharing : bool;  (** default true *)
  recycling : bool;  (** default true *)
  recycle_config : Recycle.config;
  slot_mode : slot_mode;
      (** how recycling blocks map instance ids to slots (default
          [Modulo], the paper's scheme) *)
  max_prealloc_bytes : int option;
      (** cap on the preallocated region (§1: "controlled by limiting
          the size of the preallocated memory") *)
  promote_site_threshold : float;
      (** a site whose hot fraction is at least this becomes an
          "all ids" site (default 0.8) *)
  promote_site_min_allocs : int;  (** default 8 *)
  hybrid_context : bool;
      (** §2.2.2's hybrid mechanism: gate a site's counter on the single
          call-stack signature its hot objects share, so the instance
          numbering survives input-dependent interleaving with the
          site's other allocation paths (default false) *)
  lifetime_arenas : bool;
      (** group the region by {!Lifetimes} class — several arenas'
          worth of segregation inside one preallocated block (default
          false; the paper leaves per-lifetime arenas as future work) *)
}

val default_config : config

val analyze_packed : Prefix_trace.Packed.t -> Prefix_trace.Trace_stats.t
(** [Trace_stats.analyze_packed] under a "trace-analysis" observability
    span; use this instead of calling the analyzer directly when the run
    should show up in span reports and Chrome traces.  (A profiling
    trace is analysed by {!profile}, under the same span.) *)

val analyze_stream : Prefix_trace.Stream.t -> Prefix_trace.Trace_stats.t
(** {!analyze_packed} off a segment stream under the same "trace-analysis"
    span: identical statistics, one segment of trace memory. *)

(** {2 Profiles} *)

type profile
(** The variant-independent half of planning for one profiling trace:
    its statistics, the hot selection at the configured coverage (in
    allocation order too), each site's members with their allocation
    positions and signatures, and the liveness intervals (extracted on
    first use).  Read-only once built and safe to share across domains. *)

val profile : ?config:config -> Prefix_trace.Trace.t -> profile
(** Packs the trace once and analyses it under a "trace-analysis" span
    (the intervals later come from the same packed form), then selects
    the hot objects at [config]'s coverage. *)

val profile_of_stats :
  ?config:config -> Prefix_trace.Trace_stats.t -> Prefix_trace.Trace.t -> profile
(** A profile over an existing analysis of [trace]. *)

val profile_stats : profile -> Prefix_trace.Trace_stats.t
val profile_trace : profile -> Prefix_trace.Trace.t

val intervals : profile -> Intervals.t
(** The profiling trace's liveness intervals, extracted (under a
    "liveness-intervals" span) on the first call and shared after. *)

val detect :
  ?config:config ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  Prefix_hds.Hds.t list
(** The OHDS of a profile under [config]'s detector settings and method,
    in an "hds-detection" span.  It does not depend on the variant, so a
    caller planning several variants (or the HDS policy) detects once
    and shares the list. *)

val plan_of_profile :
  ?config:config -> ?ohds:Prefix_hds.Hds.t list -> variant:Plan.variant -> profile -> Plan.t
(** Plan one variant from a shared profile, under a "pipeline" span
    whose children name every stage: reconstitution, placement-order,
    counter-sharing, recycle-analysis, offset-assignment and plan.
    [ohds], when given, must be {!detect}[ ~config] over the profile's
    statistics and trace.  A [config] whose coverage differs from the
    one the profile was built with selects its own hot set; every other
    field may vary freely between plans of one profile. *)

(** {2 One-shot planning} *)

val plan :
  ?config:config -> variant:Plan.variant -> Prefix_trace.Trace.t -> Plan.t

val plan_with_stats :
  ?config:config ->
  ?ohds:Prefix_hds.Hds.t list ->
  variant:Plan.variant ->
  Prefix_trace.Trace_stats.t ->
  Prefix_trace.Trace.t ->
  Plan.t
(** [plan_of_profile] over [profile_of_stats stats trace]: reuses an
    existing trace analysis.  Callers planning several times from one
    profile should build the profile once instead. *)

val all_variants :
  ?config:config -> Prefix_trace.Trace.t -> (Plan.variant * Plan.t) list
(** Plans for Hot, Hds and HdsHot sharing one profile and one
    detection. *)
