module Metrics = Prefix_runtime.Metrics
module Plan = Prefix_core.Plan
module Pipeline = Prefix_core.Pipeline
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Hds_policy = Prefix_runtime.Hds_policy
module Halo_policy = Prefix_runtime.Halo_policy
module Prefix_policy = Prefix_runtime.Prefix_policy
module Block_policy = Prefix_runtime.Block_policy
module Trace_stats = Prefix_trace.Trace_stats
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Workload = Prefix_workloads.Workload

type policy_run = { metrics : Metrics.t; plan : Plan.t option }

type long_source =
  | Materialized of Prefix_trace.Packed.t
  | Streamed of (unit -> Prefix_trace.Stream.t)

type result = {
  wl : Workload.t;
  profiling_trace : Prefix_trace.Trace.t;
  long_source : long_source;
  long_events : int;
  profiling_stats : Trace_stats.t;
  long_stats : Trace_stats.t;
  baseline : policy_run;
  hds : policy_run;
  halo : policy_run;
  block : policy_run;
  prefix_hot : policy_run;
  prefix_hds : policy_run;
  prefix_hdshot : policy_run;
  long_hot_set : (int, unit) Hashtbl.t;
  long_hds_set : (int, unit) Hashtbl.t;
}

let long_packed r =
  match r.long_source with
  | Materialized p -> p
  | Streamed mk -> Prefix_trace.Stream.to_packed (mk ())

let long_stream r =
  match r.long_source with
  | Materialized p -> Prefix_trace.Stream.of_packed p
  | Streamed mk -> mk ()

let long_trace r = Prefix_trace.Packed.to_trace (long_packed r)

module Span = Prefix_obs.Span
module Log = (val Logs.src_log Prefix_obs.Log.harness)

let seed = 7

let pipeline_config = Pipeline.default_config

let exec_config = Executor.default_config

(* Evaluation-run knobs, configured once at CLI startup (before any
   benchmark runs, so the memo cache never mixes modes). *)
let streaming = ref false
let set_streaming b = streaming := b
let segment_events : int option ref = ref None
let set_segment_events n = segment_events := n
let eval_scale_setting = ref Workload.Long
let set_eval_scale s = eval_scale_setting := s
let eval_scale () = !eval_scale_setting
let stream_container : [ `Generator | `Columnar ] ref = ref `Generator
let set_stream_container c = stream_container := c

(* Recycling-slot assignment mode for the PreFix plans: Figure 7's
   modulo-N rotation, or greedy interval coloring over profiled
   liveness (the CLI's --slots flag).  Configured once at startup like
   the other evaluation knobs. *)
let slot_mode = ref Pipeline.Modulo
let set_slot_mode m = slot_mode := m
let effective_pipeline_config () = { pipeline_config with Pipeline.slot_mode = !slot_mode }

(* Decode-once fan-out: replay all seven policies as consumers of a
   single decode pass ({!Executor.run_stream_many}) instead of
   re-decoding the evaluation stream per policy.  Off by default (the
   per-policy path is the long-standing reference); reports are
   byte-identical either way — CI diffs them. *)
let decode_once = ref false
let set_decode_once b = decode_once := b

(* Spooled stream containers are temp files; cleanup is registered once
   from the main domain (at_exit is domain-local in OCaml 5, so worker
   domains must not register their own). *)
let spooled_files = ref []
let spooled_mutex = Mutex.create ()

let () =
  at_exit (fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !spooled_files)

(* Deduped registration: a path already on the list (e.g. re-registered
   across run_many invocations) is not added twice, so the at_exit
   sweep never double-removes and the list cannot grow without bound. *)
let add_spooled path =
  Mutex.lock spooled_mutex;
  if not (List.mem path !spooled_files) then spooled_files := path :: !spooled_files;
  Mutex.unlock spooled_mutex

(* Remove a spool file eagerly (replay exception / guardrail breach):
   the benchmark that owned it will never produce a result, so nothing
   can re-stream from the path, and waiting for at_exit would leak the
   file for the whole process lifetime (a long fuzz campaign, say). *)
let unspool path =
  Mutex.lock spooled_mutex;
  spooled_files := List.filter (fun p -> p <> path) !spooled_files;
  Mutex.unlock spooled_mutex;
  try Sys.remove path with Sys_error _ -> ()

let spool_columnar (wl : Workload.t) ~scale ~segment_events =
  let s = Workload.generate_stream wl ~scale ~seed:(seed + 1) ?segment_events () in
  let path = Filename.temp_file ("prefix-" ^ wl.name ^ "-") ".pfxt" in
  add_spooled path;
  Prefix_trace.Stream.to_columnar_file s path;
  path

(* Degree of parallelism for [run_all]; 1 (the exact legacy sequential
   path) unless the CLI's --jobs configured otherwise.  Doubles as the
   prefetch-pipelining switch: at [jobs >= 2] streamed replays decode
   segment N+1 on a prefetch worker while segment N replays. *)
let jobs = ref 1
let set_jobs n = jobs := max 1 n

(* Dedicated pool for stream-prefetch producers ({!Stream.prefetched}),
   sized so every concurrently-running benchmark (at most [!jobs], the
   run_many fan-out) can have its one active producer on a worker.
   Separate from run_many's own pool — a producer must truly run
   concurrently with its consumer, never inline.  Created on first use,
   under a mutex (worker domains may race here); never shut down —
   parked workers cost nothing and die with the process. *)
let prefetch_pool_mutex = Mutex.create ()
let prefetch_pool_ref = ref None

let prefetch_pool () =
  Mutex.lock prefetch_pool_mutex;
  let p =
    match !prefetch_pool_ref with
    | Some p -> p
    | None ->
      let p = Prefix_parallel.Pool.create ~jobs:(!jobs + 1) in
      prefetch_pool_ref := Some p;
      p
  in
  Mutex.unlock prefetch_pool_mutex;
  p

let prefetch_spawn f = Prefix_parallel.Pool.submit (prefetch_pool ()) f

(* Every profile-side plan of one benchmark.  The OHDS is detected once
   (one "hds-detection" span) and shared by the three PreFix variants and
   the HDS policy; the other planners get spans of their own. *)
type profile_plans = {
  plan_hot : Plan.t;
  plan_hds : Plan.t;
  plan_hdshot : Plan.t;
  hds_plan : Hds_policy.plan;
  halo_plan : Prefix_halo.Halo.plan;
  block_plan : Block_policy.plan;
}

let plan_profile profile =
  let config = effective_pipeline_config () in
  let profiling_stats = Pipeline.profile_stats profile in
  let profiling_trace = Pipeline.profile_trace profile in
  let ohds = Pipeline.detect ~config profiling_stats profiling_trace in
  let plan_of variant = Pipeline.plan_of_profile ~config ~ohds ~variant profile in
  let plan_hot = plan_of Plan.Hot in
  let plan_hds = plan_of Plan.Hds in
  let plan_hdshot = plan_of Plan.HdsHot in
  let hds_plan =
    Span.with_ ~cat:"harness" "hds-policy-plan" (fun () ->
        Hds_policy.plan_of_ohds profiling_stats ohds)
  in
  let halo_plan =
    Span.with_ ~cat:"harness" "halo-plan" (fun () ->
        Prefix_halo.Halo.plan_of_trace profiling_stats profiling_trace)
  in
  let block_plan =
    Span.with_ ~cat:"harness" "block-plan" (fun () ->
        Block_policy.plan_of_intervals (Pipeline.intervals profile))
  in
  { plan_hot; plan_hds; plan_hdshot; hds_plan; halo_plan; block_plan }

let run_benchmark_spooling (wl : Workload.t) ~spooled_path =
  (* Each benchmark derives all randomness from fixed per-benchmark
     seeds (no RNG state is shared across tasks), so a pooled run is
     bit-identical to a sequential one whatever the schedule. *)
  Span.with_ ~cat:"harness" ~args:[ ("benchmark", wl.name) ] ("benchmark:" ^ wl.name)
  @@ fun () ->
  Log.info (fun m -> m "%s: generating traces" wl.name);
  let eval_scale = eval_scale () in
  let profiling_trace, long_source =
    if !streaming then begin
      (* Streamed evaluation: the long run is never materialized.  Each
         consumer below re-runs the deterministic generator, holding one
         segment of trace memory at a time. *)
      let profiling_trace =
        Span.with_ ~cat:"harness" "generate-traces" (fun () ->
            wl.generate ~scale:Profiling ~seed ())
      in
      let segment_events = !segment_events in
      let mk =
        match !stream_container with
        | `Generator ->
          fun () ->
            Workload.generate_stream wl ~scale:eval_scale ~seed:(seed + 1)
              ?segment_events ()
        | `Columnar ->
          (* Spool the deterministic stream once into a columnar (v3)
             container, then every replay below streams from the file —
             exercising the on-disk decode path end to end.  The
             container carries the same segments, so reports stay
             byte-identical to the generator-backed (and materialized)
             paths. *)
          let path =
            Span.with_ ~cat:"harness" "spool-columnar" (fun () ->
                spool_columnar wl ~scale:eval_scale ~segment_events)
          in
          spooled_path := Some path;
          fun () -> Prefix_trace.Stream.of_binary_file ?segment_events path
      in
      (profiling_trace, Streamed mk)
    end
    else begin
      let profiling_trace, long_trace =
        Span.with_ ~cat:"harness" "generate-traces" (fun () ->
            ( wl.generate ~scale:Profiling ~seed (),
              wl.generate ~scale:eval_scale ~seed:(seed + 1) () ))
      in
      (* Pack once; the packed form is read-only and shared by analysis
         and all seven policy replays below (and by any pooled experiment
         that replays this benchmark's long trace again). *)
      let long_packed =
        Span.with_ ~cat:"harness" "pack-traces" (fun () ->
            Prefix_trace.Packed.of_trace long_trace)
      in
      (profiling_trace, Materialized long_packed)
    end
  in
  let long_stream_of () =
    match long_source with
    | Materialized p -> Prefix_trace.Stream.of_packed p
    | Streamed mk ->
      let s = mk () in
      (* Pipelined decode: with worker domains available, segment N+1
         is decoded on a prefetch worker while segment N is consumed.
         The wrapper forwards the exact segment sequence, so reports
         stay byte-identical to the unwrapped stream (CI diffs the
         --jobs 1 and --jobs 2 reports).  At --jobs 1 the pipeline is
         off: same domain count and allocation behavior as before. *)
      if !jobs >= 2 then Prefix_trace.Stream.prefetched ~spawn:prefetch_spawn s
      else s
  in
  (* Both analysis passes appear as "trace-analysis" spans in obs
     reports; the profile packs its trace once for the analysis and the
     liveness intervals. *)
  let profile = Pipeline.profile ~config:(effective_pipeline_config ()) profiling_trace in
  let profiling_stats = Pipeline.profile_stats profile in
  let long_stats =
    match long_source with
    | Materialized p -> Pipeline.analyze_packed p
    | Streamed _ -> Pipeline.analyze_stream (long_stream_of ())
  in
  let long_events = Trace_stats.trace_length long_stats in
  (* Long-run classification, for pollution and capture accounting. *)
  let long_hot_set = Hashtbl.create 1024 in
  List.iter
    (fun (o : Trace_stats.obj_info) -> Hashtbl.replace long_hot_set o.obj ())
    (Trace_stats.hot_objects ~coverage:pipeline_config.coverage long_stats);
  let long_hds_set = Hashtbl.create 1024 in
  Log.info (fun m -> m "%s: detecting long-run streams" wl.name);
  let long_ohds =
    Span.with_ ~cat:"harness" "long-run-classification" (fun () ->
        Detector.detect_stream ~config:pipeline_config.detector long_stats (long_stream_of ()))
  in
  List.iter
    (fun h -> List.iter (fun o -> Hashtbl.replace long_hds_set o ()) (Hds.objs h))
    long_ohds;
  let cls =
    { Policy.is_hot = Hashtbl.mem long_hot_set; is_hds = Hashtbl.mem long_hds_set }
  in
  let costs = exec_config.costs in
  (* Profile-side plans. *)
  Log.info (fun m -> m "%s: planning" wl.name);
  let { plan_hot; plan_hds; plan_hdshot; hds_plan; halo_plan; block_plan } =
    plan_profile profile
  in
  (* Long-run replays. *)
  let baseline, hds, halo, block, prefix_hot, prefix_hds, prefix_hdshot =
    match long_source with
    | Streamed _ when !decode_once ->
      (* Decode-once fan-out: one pass over the evaluation stream hands
         each decoded segment to all seven policy sessions before the
         next segment is decoded.  Sessions are independent, so the
         seven outcomes — and hence the report — are byte-identical to
         the sequential per-policy replays below. *)
      Log.info (fun m -> m "%s: replaying all policies (decode-once)" wl.name);
      let policies =
        [ (fun heap -> Policy.baseline costs heap);
          (fun heap -> Hds_policy.policy costs heap hds_plan cls);
          (fun heap -> Halo_policy.policy costs heap halo_plan cls);
          (fun heap -> Block_policy.policy costs heap block_plan cls);
          (fun heap -> Prefix_policy.policy costs heap plan_hot cls);
          (fun heap -> Prefix_policy.policy costs heap plan_hds cls);
          (fun heap -> Prefix_policy.policy costs heap plan_hdshot cls) ]
      in
      let outcomes =
        Executor.run_stream_many ~config:exec_config ~policies (long_stream_of ())
      in
      Prefix_obs.Recorder.poll ~label:("benchmark:" ^ wl.name) ();
      let run plan (o : Executor.outcome) = { metrics = o.metrics; plan } in
      (match outcomes with
      | [ b; h; hl; blk; p_hot; p_hds; p_hdshot ] ->
        ( run None b,
          run None h,
          run None hl,
          run None blk,
          run (Some plan_hot) p_hot,
          run (Some plan_hds) p_hds,
          run (Some plan_hdshot) p_hdshot )
      | _ -> assert false)
    | _ ->
      let replay name policy plan =
        Log.info (fun m -> m "%s: replaying %s" wl.name name);
        let outcome =
          match long_source with
          | Materialized p -> Executor.run_packed ~config:exec_config ~policy p
          | Streamed _ -> Executor.run_stream ~config:exec_config ~policy (long_stream_of ())
        in
        (* Wall-clock fallback sample between policy replays, so a pooled
           experiment's timeline keeps moving even while every
           event-cadence tick belongs to some other domain's replay. *)
        Prefix_obs.Recorder.poll ~label:("benchmark:" ^ wl.name) ();
        { metrics = outcome.metrics; plan }
      in
      let baseline = replay "baseline" (fun heap -> Policy.baseline costs heap) None in
      let hds = replay "HDS" (fun heap -> Hds_policy.policy costs heap hds_plan cls) None in
      let halo = replay "HALO" (fun heap -> Halo_policy.policy costs heap halo_plan cls) None in
      let block =
        replay "Block" (fun heap -> Block_policy.policy costs heap block_plan cls) None
      in
      let prefix_run plan =
        replay (Plan.variant_name plan.Plan.variant)
          (fun heap -> Prefix_policy.policy costs heap plan cls)
          (Some plan)
      in
      ( baseline,
        hds,
        halo,
        block,
        prefix_run plan_hot,
        prefix_run plan_hds,
        prefix_run plan_hdshot )
  in
  ( { wl;
      profiling_trace;
      long_source;
      long_events;
      profiling_stats;
      long_stats;
      baseline;
      hds;
      halo;
      block;
      prefix_hot;
      prefix_hds;
      prefix_hdshot;
      long_hot_set;
      long_hds_set },
    profile )

(* A benchmark that dies mid-flight (strict-replay anomaly, guardrail
   breach, I/O failure) can never hand its result — and therefore its
   re-streamable spool file — to anyone, so the file is removed right
   here rather than lingering until at_exit.  On success the spool file
   must outlive this call: the result's [Streamed] closures re-stream
   from it (reports, benches, checkpoints). *)
let run_profiled (wl : Workload.t) =
  let spooled_path = ref None in
  try run_benchmark_spooling wl ~spooled_path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Option.iter unspool !spooled_path;
    Printexc.raise_with_backtrace e bt

let run_benchmark wl = fst (run_profiled wl)

(* The memo cache is shared by every experiment; pooled [run_all]s fill
   it from several domains at once, so all access goes through a mutex
   (never held while a benchmark actually runs).  Each result is kept
   with the profile it was planned from, so later experiments plan from
   the same record. *)
let cache : (string, result * Pipeline.profile) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()

let cached name =
  Mutex.lock cache_mutex;
  let r = Hashtbl.find_opt cache name in
  Mutex.unlock cache_mutex;
  r

(* First store wins, so two domains racing on the same benchmark agree
   on which (bit-identical anyway) result everyone sees. *)
let store name r =
  Mutex.lock cache_mutex;
  let r =
    match Hashtbl.find_opt cache name with
    | Some existing -> existing
    | None ->
      Hashtbl.replace cache name r;
      r
  in
  Mutex.unlock cache_mutex;
  r

let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Mutex.unlock cache_mutex

let find_profiled name =
  match cached name with
  | Some r -> r
  | None -> store name (run_profiled (Prefix_workloads.Registry.find name))

let find name = fst (find_profiled name)

let profile name = snd (find_profiled name)

let run_many ?jobs:j names =
  let j = match j with Some j -> max 1 j | None -> !jobs in
  let missing = List.filter (fun n -> cached n = None) names in
  (match missing with
  | [] -> ()
  | [ n ] -> ignore (find n)
  | missing when j = 1 -> List.iter (fun n -> ignore (find n)) missing
  | missing ->
    Prefix_parallel.Pool.with_pool ~jobs:j (fun pool ->
        let rs =
          Prefix_parallel.Pool.map pool
            (fun n -> run_profiled (Prefix_workloads.Registry.find n))
            missing
        in
        List.iter2 (fun n r -> ignore (store n r)) missing rs));
  List.map find names

let run_all ?jobs () = run_many ?jobs Prefix_workloads.Registry.names

let time_delta r (p : policy_run) = Metrics.time_pct_change ~baseline:r.baseline.metrics p.metrics

let best_prefix r =
  let candidates =
    [ (r.prefix_hot, "Hot"); (r.prefix_hds, "HDS"); (r.prefix_hdshot, "HDS+Hot") ]
  in
  List.fold_left
    (fun (bp, bl) (p, l) ->
      if p.metrics.Metrics.cycles.total_cycles < bp.metrics.Metrics.cycles.total_cycles then
        (p, l)
      else (bp, bl))
    (List.hd candidates) (List.tl candidates)
