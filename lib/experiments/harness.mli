(** Shared experiment machinery.

    Every table and figure derives from the same set of runs: for each
    benchmark we profile on the short input, build the plans, and replay
    the long input under seven policies (baseline, HDS [8], HALO, the
    Immix-style Block policy, and the three PreFix variants).
    [run_benchmark] performs that once;
    [run_all] memoizes across experiments so `bench/main.exe` replays
    each (benchmark, policy) pair exactly once however many tables ask
    for it. *)

module Metrics = Prefix_runtime.Metrics
module Plan = Prefix_core.Plan

type policy_run = { metrics : Metrics.t; plan : Plan.t option }

type long_source =
  | Materialized of Prefix_trace.Packed.t
      (** evaluation trace packed once, shared read-only by the seven
          policy replays and by experiments that replay it again *)
  | Streamed of (unit -> Prefix_trace.Stream.t)
      (** bounded-memory mode: each call re-runs the deterministic
          generator; no full trace ever exists in memory *)

type result = {
  wl : Prefix_workloads.Workload.t;
  profiling_trace : Prefix_trace.Trace.t;
  long_source : long_source;
  long_events : int;  (** length of the evaluation ("long") trace *)
  profiling_stats : Prefix_trace.Trace_stats.t;
  long_stats : Prefix_trace.Trace_stats.t;
  baseline : policy_run;
  hds : policy_run;
  halo : policy_run;
  block : policy_run;  (** Immix/Nofl-style block policy (interval-planned) *)
  prefix_hot : policy_run;
  prefix_hds : policy_run;
  prefix_hdshot : policy_run;
  long_hot_set : (int, unit) Hashtbl.t;  (** hot objects of the long run *)
  long_hds_set : (int, unit) Hashtbl.t;  (** long-run hot objects in streams *)
}

val long_packed : result -> Prefix_trace.Packed.t
(** The evaluation trace, materializing it first when the result was
    produced in streaming mode (experiments that need random access pay
    the memory cost only then). *)

val long_stream : result -> Prefix_trace.Stream.t
(** The evaluation trace as a segment stream (cheap in both modes). *)

val long_trace : result -> Prefix_trace.Trace.t
(** Boxed view of {!long_packed} — materializes; prefer the packed or
    streamed accessors. *)

val seed : int
(** The fixed experiment seed (7). *)

val set_streaming : bool -> unit
(** When true, [run_benchmark] evaluates the long run via
    {!Prefix_trace.Stream}: generation, analysis, stream detection and
    all seven policy replays hold one segment of trace memory at a time,
    and results are identical to the materialized path (the CLI's
    [--stream] flag).  Configure before the first run — the memo cache
    does not distinguish modes. *)

val set_segment_events : int option -> unit
(** Segment size (events) for streamed evaluation; [None] uses
    {!Prefix_trace.Stream.default_segment_events}. *)

val set_stream_container : [ `Generator | `Columnar ] -> unit
(** Source of the streamed evaluation (with {!set_streaming}):
    [`Generator] (default) re-runs the deterministic workload generator
    on every pass; [`Columnar] spools the stream once into a columnar
    (v3) container in the temp directory and streams every replay from
    the file — same segments, byte-identical reports, but the on-disk
    decode path is exercised end to end.  Spooled files are removed at
    process exit.  Configure before the first run (the CLI's
    [--stream-container] flag). *)

val set_eval_scale : Prefix_workloads.Workload.scale -> unit
(** Scale of the evaluation run (default [Long]; [Huge] is the
    streaming engine's target, ~10x longer). *)

val set_decode_once : bool -> unit
(** When true (and streaming), the seven policy replays run as consumers
    of a single decode pass ({!Prefix_runtime.Executor.run_stream_many})
    instead of each re-decoding the evaluation stream — one decode for
    seven replays.  Reports are byte-identical to the per-policy path
    (CI diffs them).  Off by default; the CLI's [--decode-once] flag.
    Configure before the first run. *)

val set_slot_mode : Prefix_core.Pipeline.slot_mode -> unit
(** Recycling-slot assignment mode for the PreFix plans: [Modulo]
    (default, Figure 7's rotation) or [Interval] (greedy coloring of
    profiled liveness intervals).  The CLI's [--slots] flag.  Configure
    before the first run — the memo cache does not distinguish modes. *)

val effective_pipeline_config : unit -> Prefix_core.Pipeline.config
(** {!pipeline_config} with the configured {!set_slot_mode} applied —
    what [run_benchmark] actually plans with. *)

val pipeline_config : Prefix_core.Pipeline.config
(** The configuration used for every benchmark's plans. *)

val exec_config : Prefix_runtime.Executor.config
(** Scaled hierarchy + default costs (see DESIGN.md). *)

type profile_plans = {
  plan_hot : Plan.t;
  plan_hds : Plan.t;
  plan_hdshot : Plan.t;
  hds_plan : Prefix_runtime.Hds_policy.plan;
  halo_plan : Prefix_halo.Halo.plan;
  block_plan : Prefix_runtime.Block_policy.plan;
}

val plan_profile : Prefix_core.Pipeline.profile -> profile_plans
(** Every profile-side plan of one benchmark, as [run_benchmark] builds
    them from its one {!Prefix_core.Pipeline.profile}: PreFix Hot, Hds
    and HdsHot under {!effective_pipeline_config},
    then the HDS, HALO and Block policy plans.  HDS mining runs once (one
    ["hds-detection"] span) and its OHDS is shared by the three PreFix
    plans and the HDS plan; the other planners run in ["halo-plan"],
    ["hds-policy-plan"] and ["block-plan"] spans.  The Block plan reads
    the profile's liveness intervals. *)

val eval_scale : unit -> Prefix_workloads.Workload.scale
(** The configured {!set_eval_scale}. *)

val best_prefix : result -> policy_run * string
(** The best-performing PreFix variant (by cycles) and its short label
    ("Hot" / "HDS" / "HDS+Hot"). *)

val time_delta : result -> policy_run -> float
(** % execution-time change vs the run's baseline (negative = faster). *)

val run_benchmark : Prefix_workloads.Workload.t -> result
(** Run one benchmark end to end (not cached). *)

val set_jobs : int -> unit
(** Default degree of parallelism for {!run_all} / {!run_many} when no
    explicit [?jobs] is given.  Starts at 1 — the exact legacy
    sequential path; the CLI's [--jobs] flag lands here.  Values are
    clamped to [>= 1].  At [jobs >= 2], streamed replays additionally
    pipeline their decode ({!Prefix_trace.Stream.prefetched}): segment
    N+1 is decoded on a prefetch worker while segment N replays.
    Reports are unaffected — bit-identical whatever [jobs] is. *)

val run_all : ?jobs:int -> unit -> result list
(** All 13 benchmarks, memoized for the lifetime of the process.
    Uncached benchmarks run across a domain pool of [jobs] (default:
    the {!set_jobs} setting).  Every benchmark seeds its own RNGs from
    fixed constants, so results and report text are bit-identical
    whatever [jobs] is; only wall time changes. *)

val run_many : ?jobs:int -> string list -> result list
(** Like {!run_all} for an explicit benchmark list, preserving list
    order in the results. *)

val clear_cache : unit -> unit
(** Forget all memoized results (tests use this to force fresh runs). *)

val profile : string -> Prefix_core.Pipeline.profile
(** The profile {!find}'s result was planned from (memoized with it),
    for experiments that plan again from the same profiling trace. *)

val find : string -> result
(** Memoized lookup by benchmark name.

    Progress is reported through the ["prefix.harness"] [Logs] source
    (see {!Prefix_obs.Log.harness}); install a reporter with
    [Prefix_obs.Log.setup ~level:(Some Logs.Info) ()] — or pass
    [--verbose] / [--log-level info] to the CLI — to see it.  Each
    benchmark run is additionally wrapped in a ["benchmark:<name>"]
    observability span whose children cover trace generation, the
    analysis passes, planning and every policy replay. *)
