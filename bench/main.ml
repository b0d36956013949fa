(* Benchmark harness.

   Two halves:

   1. The paper reproduction — regenerates every table and figure of the
      evaluation section (Tables 2-6, Figures 1, 2, 9-14) plus the
      ablations, printing measured values next to the paper's.  Run all
      with no arguments, or a subset with e.g.
        dune exec bench/main.exe -- table3 fig9
   2. Bechamel micro-benchmarks of the analysis algorithms (one
      Test.make group per pipeline stage), enabled with the `micro`
      argument.

   Plus `throughput [--benches a,b] [--out FILE]`: replay every
   benchmark's Profiling-scale trace per policy through both executor
   paths (boxed reference vs packed struct-of-arrays), print events/s,
   and write BENCH_replay.json; exits non-zero if the paths' outcomes
   ever differ.

   And `stream [--benches a,b] [--scale long|huge] [--out FILE]`: replay
   each benchmark's evaluation-scale trace through the bounded-memory
   streaming engine and the materialized packed path, print events/s and
   peak heap for both, and write BENCH_stream.json; exits non-zero if
   the outcomes ever differ.

   And `columnar [--benches a,b] [--scale long|huge] [--out FILE]`:
   spool each benchmark's evaluation trace to disk as a framed v2 and a
   columnar v3 container, time a full decode+replay pass from each,
   print events/s and bytes/event, and write BENCH_columnar.json; exits
   non-zero if either streamed outcome differs from the materialized
   packed replay.

   And `telemetry [--benches a,b] [--out FILE]`: replay each benchmark's
   Long-scale trace with the continuous flight recorder off and on, in
   samples of at least 200 ms, print the throughput cost of telemetry,
   and write
   BENCH_telemetry.json; exits non-zero if the geomean overhead exceeds
   the 3% budget.

   And `checkpoint [--benches a,b] [--out FILE]`: replay each
   benchmark's Long-scale trace through the segment-session path with
   checkpointing off and on (full session snapshots at segment cadence,
   wall-clock throttled as in the durable runner, measured over chains
   of back-to-back replays), print the throughput cost of crash safety,
   and write BENCH_checkpoint.json; exits non-zero if the geomean
   overhead exceeds the 3% budget.

   And `pipeline [--benches a,b] [--scale long|huge] [--out FILE]`:
   spool each benchmark's evaluation trace into a columnar v3
   container, then replay all seven harness policies from it two ways —
   seven independent decode+replay passes (the per-policy path) vs one
   decode-once fan-out over a prefetch-pipelined stream — print
   events/s for both, and write BENCH_pipeline.json; exits non-zero if
   any of the fourteen streamed outcomes differs from the materialized
   packed replay.

   And `block [--benches a,b] [--out FILE]`: replay each benchmark's
   Profiling-scale trace under baseline, the Immix-style Block policy,
   and PreFix:HDS+Hot planned twice — modulo-N recycling vs greedy
   interval coloring — print simulated cycles, recycling evictions and
   events/s, and write BENCH_block.json; exits non-zero if any replay
   breaks the footprint invariants (placement must never change the
   memory-reference stream, and interval coloring must never evict
   more than modulo does).

   Every BENCH_*.json carries a provenance header (ocaml_version,
   word_size, reps, scale) so stored artifacts remain interpretable.

   `--jobs N` (anywhere on the command line) sizes the domain pool used
   by the paper-reproduction harness and the `reps` repetition sweep;
   the default is the runtime's recommended domain count.  Reports are
   bit-identical for every N. *)

module R = Prefix_experiments.Report
module Harness = Prefix_experiments.Harness
module Pool = Prefix_parallel.Pool
module Rng = Prefix_util.Rng
module Stats = Prefix_util.Stats

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  (* A mid-size synthetic input shared by the analysis benches. *)
  let wl = Prefix_workloads.Registry.find "libc" in
  let trace = wl.generate ~scale:Profiling ~seed:7 () in
  let stats = Prefix_trace.Trace_stats.analyze trace in
  let seq = Prefix_hds.Detector.hot_sequence stats trace in
  let seq = Array.sub seq 0 (min 2048 (Array.length seq)) in
  let ohds = Prefix_hds.Detector.detect_with_stats stats trace in
  let tests =
    [ Test.make ~name:"trace-stats" (Staged.stage (fun () ->
          ignore (Prefix_trace.Trace_stats.analyze trace)));
      Test.make ~name:"lcs-dp" (Staged.stage (fun () ->
          let a = Array.sub seq 0 (min 256 (Array.length seq)) in
          ignore (Prefix_hds.Lcs.lcs a a)));
      Test.make ~name:"sequitur" (Staged.stage (fun () ->
          ignore (Prefix_hds.Sequitur.build seq)));
      Test.make ~name:"detector-lcs" (Staged.stage (fun () ->
          ignore (Prefix_hds.Detector.detect_with_stats stats trace)));
      Test.make ~name:"detector-sequitur" (Staged.stage (fun () ->
          ignore
            (Prefix_hds.Detector.detect_with_stats ~method_:Prefix_hds.Detector.Sequitur
               stats trace)));
      Test.make ~name:"reconstitute" (Staged.stage (fun () ->
          ignore (Prefix_core.Layout.reconstitute ohds)));
      Test.make ~name:"plan-pipeline" (Staged.stage (fun () ->
          ignore
            (Prefix_core.Pipeline.plan_with_stats ~variant:Prefix_core.Plan.HdsHot stats
               trace)));
      Test.make ~name:"allocator-churn" (Staged.stage (fun () ->
          let a = Prefix_heap.Allocator.create () in
          let addrs = Array.init 512 (fun i -> Prefix_heap.Allocator.malloc a (16 + (i mod 8 * 16))) in
          Array.iter (fun addr -> Prefix_heap.Allocator.free a addr) addrs));
      Test.make ~name:"cache-access" (Staged.stage (fun () ->
          let h = Prefix_cachesim.Hierarchy.create ~config:Prefix_cachesim.Hierarchy.scaled_config () in
          for i = 0 to 4095 do
            Prefix_cachesim.Hierarchy.access h (i * 48)
          done));
      (* Observability must be free when off: these measure the
         disabled-mode cost of the span and metric fast paths (a single
         bool-ref check each). *)
      Test.make ~name:"obs-span-off" (Staged.stage (fun () ->
          for _ = 1 to 1024 do
            ignore (Prefix_obs.Span.with_ "bench" (fun () -> ()))
          done));
      Test.make ~name:"obs-metric-off" (Staged.stage (
          let c = Prefix_obs.Metric.counter "bench.counter" in
          fun () ->
            for _ = 1 to 1024 do
              Prefix_obs.Metric.incr c
            done)) ]
  in
  let benchmark test =
    let quota = Time.second 0.25 in
    Benchmark.all (Benchmark.cfg ~limit:1000 ~quota ~kde:None ()) Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-20s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-20s (no estimate)\n%!" name)
        results)
    tests

(* Repetition sweep: re-measure the seed-sensitive benchmarks' best
   PreFix delta across [n] fresh workload seeds, fanned out over the
   pool.  Each repetition's generator is split off a fixed root
   sequentially *before* the fan-out, so the seeds (and therefore every
   number printed) are identical whatever --jobs is. *)
let run_reps ~jobs n =
  let benchmarks = [ "mcf"; "libc" ] in
  let root = Rng.create 0xC0FFEE in
  let rngs = List.init n (fun _ -> Rng.split root) in
  let reps =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map pool
          (fun rng ->
            let seed = Rng.int rng 1_000_000 in
            let deltas =
              List.map
                (fun b -> Prefix_experiments.Exp_stability.delta_for b seed)
                benchmarks
            in
            (seed, Stats.mean deltas))
          rngs)
  in
  Printf.printf "=== %d repetitions over %s (%d jobs) ===\n" n
    (String.concat ", " benchmarks) jobs;
  List.iteri
    (fun i (seed, d) -> Printf.printf "rep %2d  seed %6d  best-PreFix %+.2f%%\n" i seed d)
    reps;
  let ds = List.map snd reps in
  Printf.printf "mean %+.2f%%  min %+.2f%%  max %+.2f%%  stddev(n-1) %.3f\n"
    (Stats.mean ds)
    (List.fold_left min infinity ds)
    (List.fold_left max neg_infinity ds)
    (Stats.stddev_sample ds)

(* Provenance header for every BENCH_*.json artifact: enough to
   interpret a stored run later — which compiler and bitness produced
   the numbers, how many repetitions backed each figure, and at what
   workload scale. *)
let provenance_json ~reps ~scale =
  Printf.sprintf
    "  \"ocaml_version\": %S,\n  \"word_size\": %d,\n  \"reps\": %d,\n  \
     \"scale\": %S,\n"
    Sys.ocaml_version Sys.word_size reps scale

(* Replay-throughput comparison: every benchmark's Profiling-scale trace
   replayed under each policy through both executor paths — the boxed
   reference interpreter and the packed struct-of-arrays fast path.
   Beyond the events/s table this doubles as a differential test: the
   two paths must produce structurally identical metrics (same counters,
   same cycles, same recovery), and any divergence fails the run. *)
let run_throughput ~benches ~out =
  let module Trace_stats = Prefix_trace.Trace_stats in
  let module Packed = Prefix_trace.Packed in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let module Pipeline = Prefix_core.Pipeline in
  let module Plan = Prefix_core.Plan in
  let costs = Executor.default_config.costs in
  let reps = 10 in
  let time_ns f =
    (* Best of [reps] after one warmup — replays are deterministic, so
       min is the least-noise estimator. *)
    ignore (f ());
    let best = ref Int64.max_int in
    for _ = 1 to reps do
      let t0 = Prefix_obs.Clock.now_ns () in
      ignore (f ());
      let dt = Int64.sub (Prefix_obs.Clock.now_ns ()) t0 in
      if dt < !best then best := dt
    done;
    Int64.to_float !best /. 1e9
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("{\n" ^ provenance_json ~reps ~scale:"profiling" ^ "  \"benches\": [");
  let speedups = ref [] in
  let all_equal = ref true in
  Printf.printf "=== replay throughput: boxed vs packed (Profiling scale) ===\n";
  Printf.printf "%-10s %-12s %14s %14s %8s  %s\n" "bench" "policy" "boxed ev/s"
    "packed ev/s" "speedup" "metrics";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let trace = wl.generate ~scale:Profiling ~seed:7 () in
      let packed = Packed.of_trace trace in
      let events = Packed.length packed in
      let stats = Trace_stats.analyze_packed packed in
      let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace stats trace in
      let halo_plan = Prefix_halo.Halo.plan_of_trace stats trace in
      let prefix_plan = Pipeline.plan_with_stats ~variant:Plan.HdsHot stats trace in
      let policies =
        [ ("baseline", fun heap -> Policy.baseline costs heap);
          ("HDS",
           fun heap ->
             Prefix_runtime.Hds_policy.policy costs heap hds_plan Policy.no_classification);
          ("HALO",
           fun heap ->
             Prefix_runtime.Halo_policy.policy costs heap halo_plan
               Policy.no_classification);
          ("PreFix",
           fun heap ->
             Prefix_runtime.Prefix_policy.policy costs heap prefix_plan
               Policy.no_classification) ]
      in
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"bench\": %S, \"events\": %d, \"policies\": [" name
           events);
      List.iteri
        (fun pi (pname, policy) ->
          let boxed = Executor.run_boxed ~policy trace in
          let packed_o = Executor.run_packed ~policy packed in
          let equal =
            boxed.Executor.metrics = packed_o.Executor.metrics
            && boxed.Executor.recovery = packed_o.Executor.recovery
          in
          if not equal then all_equal := false;
          let t_boxed = time_ns (fun () -> Executor.run_boxed ~policy trace) in
          let t_packed = time_ns (fun () -> Executor.run_packed ~policy packed) in
          let rate t = if t > 0. then float_of_int events /. t else 0. in
          let speedup = if t_packed > 0. then t_boxed /. t_packed else 0. in
          speedups := speedup :: !speedups;
          Printf.printf "%-10s %-12s %14.0f %14.0f %7.2fx  %s\n" name pname
            (rate t_boxed) (rate t_packed) speedup
            (if equal then "identical" else "MISMATCH");
          if pi > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n      { \"policy\": %S, \"boxed_events_per_sec\": %.0f, \
                \"packed_events_per_sec\": %.0f, \"speedup\": %.3f, \
                \"metrics_equal\": %b }"
               pname (rate t_boxed) (rate t_packed) speedup equal))
        policies;
      Buffer.add_string buf " ] }")
    benches;
  let geomean =
    match !speedups with
    | [] -> 1.
    | ss ->
      exp (List.fold_left (fun a s -> a +. log (max 1e-9 s)) 0. ss
           /. float_of_int (List.length ss))
  in
  Buffer.add_string buf
    (Printf.sprintf " ],\n  \"geomean_speedup\": %.3f,\n  \"all_equal\": %b\n}\n"
       geomean !all_equal);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf "geomean speedup %.2fx over %d (bench, policy) pairs; wrote %s\n"
    geomean (List.length !speedups) out;
  if not !all_equal then begin
    prerr_endline "bench: packed and boxed replay outcomes differ";
    exit 1
  end

(* Streaming-engine comparison: replay each benchmark's evaluation-scale
   trace under the baseline policy through the bounded-memory streaming
   path and through the materialized packed path, reporting events/s and
   peak heap for both.  The streamed leg runs FIRST — top-heap-words and
   VmHWM are monotonic over the process lifetime, so its peak reading is
   only meaningful before anything materializes the trace.  Differential
   too: the two outcomes must be structurally identical. *)
let run_stream_bench ~benches ~scale ~out =
  let module Stream = Prefix_trace.Stream in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let costs = Executor.default_config.costs in
  let word_bytes = Sys.word_size / 8 in
  let top_heap_bytes () =
    Gc.compact ();
    (Gc.quick_stat ()).Gc.top_heap_words * word_bytes
  in
  let vm_hwm_kb () =
    (* Linux-only high-water RSS; 0 where /proc is absent. *)
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> 0
    | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
          else go ()
      in
      go ()
  in
  let time_ns f =
    let t0 = Prefix_obs.Clock.now_ns () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (Prefix_obs.Clock.now_ns ()) t0) /. 1e9)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    ("{\n"
    ^ provenance_json ~reps:1 ~scale:(Prefix_workloads.Workload.scale_name scale)
    ^ "  \"benches\": [");
  let all_equal = ref true in
  Printf.printf "=== streamed vs materialized replay (%s scale, baseline policy) ===\n"
    (Prefix_workloads.Workload.scale_name scale);
  Printf.printf "%-10s %10s %14s %14s %12s %12s  %s\n" "bench" "events"
    "stream ev/s" "packed ev/s" "stream peakB" "packed peakB" "metrics";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let stream () = Prefix_workloads.Workload.generate_stream wl ~scale ~seed:8 () in
      let policy heap = Policy.baseline costs heap in
      (* Leg 1: streamed — nothing ever materializes the full trace. *)
      let streamed, t_stream = time_ns (fun () -> Executor.run_stream ~policy (stream ())) in
      let stream_peak = top_heap_bytes () in
      let stream_hwm = vm_hwm_kb () in
      (* Leg 2: materialize the identical trace, replay the fast path. *)
      let packed = Stream.to_packed (stream ()) in
      let events = Prefix_trace.Packed.length packed in
      let materialized, t_packed = time_ns (fun () -> Executor.run_packed ~policy packed) in
      let packed_peak = top_heap_bytes () in
      let packed_hwm = vm_hwm_kb () in
      let equal =
        streamed.Executor.metrics = materialized.Executor.metrics
        && streamed.Executor.recovery = materialized.Executor.recovery
      in
      if not equal then all_equal := false;
      let rate t = if t > 0. then float_of_int events /. t else 0. in
      Printf.printf "%-10s %10d %14.0f %14.0f %12d %12d  %s\n" name events
        (rate t_stream) (rate t_packed) stream_peak packed_peak
        (if equal then "identical" else "MISMATCH");
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"bench\": %S, \"events\": %d, \
            \"stream_events_per_sec\": %.0f, \"packed_events_per_sec\": %.0f, \
            \"stream_peak_heap_bytes\": %d, \"packed_peak_heap_bytes\": %d, \
            \"stream_vm_hwm_kb\": %d, \"packed_vm_hwm_kb\": %d, \
            \"metrics_equal\": %b }"
           name events (rate t_stream) (rate t_packed) stream_peak packed_peak
           stream_hwm packed_hwm equal))
    benches;
  Buffer.add_string buf
    (Printf.sprintf " ],\n  \"all_equal\": %b\n}\n" !all_equal);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf "wrote %s\n" out;
  if not !all_equal then begin
    prerr_endline "bench: streamed and materialized replay outcomes differ";
    exit 1
  end

(* Columnar container comparison: spool each benchmark's evaluation
   trace to disk twice — framed v2 and columnar v3 — then time a full
   decode+replay pass ([Executor.run_stream] over
   [Stream.of_binary_file]) from each container, reporting events/s and
   bytes/event.  Differential: both streamed outcomes must be
   structurally identical to [Executor.run_packed] on the materialized
   trace, and any divergence fails the run. *)
let run_columnar_bench ~benches ~scale ~out =
  let module Stream = Prefix_trace.Stream in
  let module Packed = Prefix_trace.Packed in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let costs = Executor.default_config.costs in
  let reps = 15 in
  let time_ns f =
    (* Best of [reps] after one warmup (deterministic replays; min is
       the least-noise estimator). *)
    ignore (f ());
    let best = ref Int64.max_int in
    for _ = 1 to reps do
      let t0 = Prefix_obs.Clock.now_ns () in
      ignore (f ());
      let dt = Int64.sub (Prefix_obs.Clock.now_ns ()) t0 in
      if dt < !best then best := dt
    done;
    Int64.to_float !best /. 1e9
  in
  let file_size path = (Unix.stat path).Unix.st_size in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    ("{\n"
    ^ provenance_json ~reps ~scale:(Prefix_workloads.Workload.scale_name scale)
    ^ "  \"benches\": [");
  let all_equal = ref true in
  let speedups = ref [] in
  Printf.printf
    "=== columnar (v3) vs framed (v2) container: decode+replay (%s scale) ===\n"
    (Prefix_workloads.Workload.scale_name scale);
  Printf.printf "%-10s %10s %12s %12s %8s %7s %7s  %s\n" "bench" "events"
    "v2 ev/s" "v3 ev/s" "speedup" "v2 B/ev" "v3 B/ev" "metrics";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let packed =
        Stream.to_packed (Prefix_workloads.Workload.generate_stream wl ~scale ~seed:8 ())
      in
      let events = Packed.length packed in
      let policy heap = Policy.baseline costs heap in
      let reference = Executor.run_packed ~policy packed in
      let v2_path = Filename.temp_file ("prefix-" ^ name ^ "-v2-") ".pfxt" in
      let v3_path = Filename.temp_file ("prefix-" ^ name ^ "-v3-") ".pfxt" in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove v2_path with Sys_error _ -> ());
          try Sys.remove v3_path with Sys_error _ -> ())
        (fun () ->
          Prefix_trace.Binfmt.write_file_framed v2_path (Packed.to_trace packed);
          Prefix_trace.Columnar.write_file v3_path packed;
          (* One re-iterable stream per container, reused across reps —
             the production pattern (the harness replays one spooled
             file once per policy), so per-pass figures exclude the
             one-time segment-buffer/decoder setup. *)
          let v2_stream = Stream.of_binary_file v2_path in
          let v3_stream = Stream.of_binary_file v3_path in
          let replay_stream s = Executor.run_stream ~policy s in
          let check what (o : Executor.outcome) =
            let equal =
              o.Executor.metrics = reference.Executor.metrics
              && o.Executor.recovery = reference.Executor.recovery
            in
            if not equal then begin
              all_equal := false;
              Printf.eprintf "bench: %s: %s replay diverges from run_packed\n" name what
            end;
            equal
          in
          let eq_v2 = check "v2" (replay_stream v2_stream) in
          let eq_v3 = check "v3" (replay_stream v3_stream) in
          let t_v2 = time_ns (fun () -> replay_stream v2_stream) in
          let t_v3 = time_ns (fun () -> replay_stream v3_stream) in
          let rate t = if t > 0. then float_of_int events /. t else 0. in
          let speedup = if t_v3 > 0. then t_v2 /. t_v3 else 0. in
          speedups := speedup :: !speedups;
          let bpe path =
            if events > 0 then float_of_int (file_size path) /. float_of_int events
            else 0.
          in
          Printf.printf "%-10s %10d %12.0f %12.0f %7.2fx %7.2f %7.2f  %s\n" name
            events (rate t_v2) (rate t_v3) speedup (bpe v2_path) (bpe v3_path)
            (if eq_v2 && eq_v3 then "identical" else "MISMATCH");
          if bi > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n    { \"bench\": %S, \"events\": %d, \
                \"v2_events_per_sec\": %.0f, \"v3_events_per_sec\": %.0f, \
                \"speedup\": %.3f, \
                \"v2_bytes\": %d, \"v3_bytes\": %d, \
                \"v2_bytes_per_event\": %.3f, \"v3_bytes_per_event\": %.3f, \
                \"metrics_equal\": %b }"
               name events (rate t_v2) (rate t_v3) speedup (file_size v2_path)
               (file_size v3_path) (bpe v2_path) (bpe v3_path) (eq_v2 && eq_v3))))
    benches;
  let geomean =
    match !speedups with
    | [] -> 1.
    | ss ->
      exp (List.fold_left (fun a s -> a +. log (max 1e-9 s)) 0. ss
           /. float_of_int (List.length ss))
  in
  Buffer.add_string buf
    (Printf.sprintf " ],\n  \"geomean_speedup\": %.3f,\n  \"all_equal\": %b\n}\n"
       geomean !all_equal);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf "geomean decode+replay speedup %.2fx over %d benches; wrote %s\n"
    geomean (List.length !speedups) out;
  if not !all_equal then begin
    prerr_endline "bench: containerized replay outcomes differ from run_packed";
    exit 1
  end

(* Flight-recorder overhead: replay each benchmark's Long-scale packed
   trace under the baseline policy with observability on, first
   with the recorder disabled and then recording at the default cadence,
   and report the throughput cost of continuous telemetry.  Both legs
   pay the same span/metric cost, so the delta isolates the recorder:
   one integer compare per event plus a registry snapshot every 2^16
   events.  A single Long replay takes only 1-10 ms, so each timed
   sample chains replays, alternating the legs, until the off leg spans
   at least 200 ms.  Budget: 3% geomean. *)
let run_telemetry ~benches ~out =
  let module Packed = Prefix_trace.Packed in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let costs = Executor.default_config.costs in
  let reps = 8 in
  let min_sample_ns = 200_000_000L in
  let time1 f =
    let t0 = Prefix_obs.Clock.now_ns () in
    ignore (f ());
    Int64.sub (Prefix_obs.Clock.now_ns ()) t0
  in
  (* One paired sample: off and on replays alternate until the off leg
     spans [min_sample_ns], so both legs see the same stretch of machine
     speed.  Returns each leg's mean time per replay. *)
  let sample run =
    let off = ref 0L and on = ref 0L and n = ref 0 in
    while Int64.compare !off min_sample_ns < 0 do
      Prefix_obs.Recorder.disable ();
      off := Int64.add !off (time1 run);
      Prefix_obs.Recorder.configure ();
      on := Int64.add !on (time1 run);
      incr n
    done;
    (Int64.to_float !off /. float_of_int !n, Int64.to_float !on /. float_of_int !n)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("{\n" ^ provenance_json ~reps ~scale:"long" ^ "  \"benches\": [");
  let ratios = ref [] in
  Printf.printf "=== flight-recorder overhead (Long scale, baseline policy) ===\n";
  Printf.printf "%-10s %14s %14s %9s\n" "bench" "off ev/s" "on ev/s" "overhead";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let packed = Packed.of_trace (wl.generate ~scale:Long ~seed:8 ()) in
      let events = Packed.length packed in
      let run () =
        Executor.run_packed ~policy:(fun heap -> Policy.baseline costs heap) packed
      in
      (* Each rep times the two legs back to back (off, then on) and
         contributes one paired ratio; the overhead estimate is the
         median ratio.  Pairing cancels slow drift, the median discards
         the noise spikes a shared machine throws at individual reps,
         and taking the per-leg min of the same samples gives the
         throughput figures. *)
      Prefix_obs.Control.set true;
      ignore (run ());
      let best_off = ref infinity and best_on = ref infinity in
      let pair_ratios =
        Array.init reps (fun _ ->
            let d_off, d_on = sample run in
            if d_off < !best_off then best_off := d_off;
            if d_on < !best_on then best_on := d_on;
            d_on /. d_off)
      in
      Prefix_obs.Recorder.disable ();
      Prefix_obs.Control.set false;
      Array.sort compare pair_ratios;
      let median =
        let n = Array.length pair_ratios in
        if n land 1 = 1 then pair_ratios.(n / 2)
        else (pair_ratios.((n / 2) - 1) +. pair_ratios.(n / 2)) /. 2.
      in
      let t_off = !best_off /. 1e9 in
      let t_on = !best_on /. 1e9 in
      let rate t = if t > 0. then float_of_int events /. t else 0. in
      let overhead = median -. 1. in
      ratios := (1. +. max 0. overhead) :: !ratios;
      Printf.printf "%-10s %14.0f %14.0f %8.2f%%\n" name (rate t_off) (rate t_on)
        (100. *. overhead);
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"bench\": %S, \"events\": %d, \"off_events_per_sec\": %.0f, \
            \"on_events_per_sec\": %.0f, \"overhead_pct\": %.2f }"
           name events (rate t_off) (rate t_on) (100. *. overhead)))
    benches;
  let geomean =
    match !ratios with
    | [] -> 1.
    | rs ->
      exp (List.fold_left (fun a r -> a +. log r) 0. rs /. float_of_int (List.length rs))
  in
  let geomean_pct = 100. *. (geomean -. 1.) in
  let budget_pct = 3.0 in
  Buffer.add_string buf
    (Printf.sprintf " ],\n  \"geomean_overhead_pct\": %.2f,\n  \"budget_pct\": %.1f\n}\n"
       geomean_pct budget_pct);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf "geomean recorder overhead %.2f%% (budget %.1f%%); wrote %s\n" geomean_pct
    budget_pct out;
  if geomean_pct > budget_pct then begin
    Printf.eprintf "bench: recorder overhead %.2f%% exceeds %.1f%% budget\n" geomean_pct
      budget_pct;
    exit 1
  end

(* Checkpointing overhead: replay each benchmark's Long-scale trace
   under the baseline policy through the segment-session path, first
   without checkpoints and then with the durable runner's save policy —
   a full session snapshot (atomic write + fsync) at segment cadence,
   wall-clock throttled to one save per [default_throttle_ms].  Each
   timed sample chains several back-to-back replays with the throttle
   clock carried across them, so it measures the steady state of a
   long-running job rather than a single short replay's worth of save
   alignment.  The JSON reports the observed save count per sample so
   a passing gate is demonstrably non-vacuous.  Same paired-median
   methodology as the telemetry gate, same 3% budget. *)
let run_checkpoint_bench ~benches ~out =
  let module Packed = Prefix_trace.Packed in
  let module Stream = Prefix_trace.Stream in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let module Checkpoint = Prefix_runtime.Checkpoint in
  let costs = Executor.default_config.costs in
  let reps = 5 in
  (* Several replays per timed sample, so each on-leg sample spans
     multiple throttle windows (a Long replay alone can finish inside
     one). *)
  let chain = 10 in
  (* Small segments: dense save *opportunities*, as a real long run
     with --checkpoint-every would have.  The throttle, not the
     cadence, must be what bounds the cost. *)
  let segment_events = 8192 in
  let every = 4 in
  let throttle_ms = Checkpoint.default_throttle_ms in
  let dir = Filename.temp_file "bench-ckpt" "" in
  Sys.remove dir;
  Prefix_util.Fsio.mkdir_p dir;
  let now_ms () = Int64.to_float (Prefix_obs.Clock.now_ns ()) /. 1e6 in
  let time1 f =
    let t0 = Prefix_obs.Clock.now_ns () in
    ignore (f ());
    Int64.sub (Prefix_obs.Clock.now_ns ()) t0
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("{\n" ^ provenance_json ~reps ~scale:"long" ^ "  \"benches\": [");
  let ratios = ref [] in
  Printf.printf
    "=== checkpointing overhead (Long scale, baseline policy, %d-replay \
     chains, save cadence %d x %d events, throttle %.0fms) ===\n"
    chain every segment_events throttle_ms;
  Printf.printf "%-10s %14s %14s %9s %7s\n" "bench" "off ev/s" "on ev/s"
    "overhead" "saves";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let packed = Packed.of_trace (wl.generate ~scale:Long ~seed:8 ()) in
      let events = Packed.length packed in
      let ckpt_path = Filename.concat dir (name ^ ".ckpt") in
      let saves_last = ref 0 in
      let run ~save () =
        let saved = ref 0 in
        let last_save = ref (now_ms ()) in
        for _ = 1 to chain do
          let heap = Prefix_heap.Allocator.create () in
          let p = Policy.baseline costs heap in
          let st =
            Executor.session_create ~config:Executor.default_config
              ~mode:Policy.Strict ~heatmap_objs:None ~attribute:false ~heap ~p
          in
          let segs = ref 0 in
          Stream.iter_segments (Stream.of_packed ~segment_events packed)
            (fun ~base seg ->
              Executor.replay_segment st ~base seg;
              incr segs;
              if
                save && !segs mod every = 0
                && now_ms () -. !last_save >= throttle_ms
              then begin
                Checkpoint.save ~path:ckpt_path
                  { Checkpoint.kind = "session";
                    meta = [ ("bench", name) ];
                    event_index = Executor.session_events st }
                  ~payload:(Executor.session_serialize st);
                incr saved;
                last_save := now_ms ()
              end);
          ignore (Executor.session_finish st)
        done;
        saves_last := !saved
      in
      run ~save:false ();
      let best_off = ref Int64.max_int and best_on = ref Int64.max_int in
      let total_saves = ref 0 in
      let pair_ratios =
        Array.init reps (fun _ ->
            let d_off = time1 (run ~save:false) in
            if d_off < !best_off then best_off := d_off;
            let d_on = time1 (run ~save:true) in
            total_saves := !total_saves + !saves_last;
            if d_on < !best_on then best_on := d_on;
            Int64.to_float d_on /. Int64.to_float d_off)
      in
      Array.sort compare pair_ratios;
      let median =
        let n = Array.length pair_ratios in
        if n land 1 = 1 then pair_ratios.(n / 2)
        else (pair_ratios.((n / 2) - 1) +. pair_ratios.(n / 2)) /. 2.
      in
      let chain_events = events * chain in
      let t_off = Int64.to_float !best_off /. 1e9 in
      let t_on = Int64.to_float !best_on /. 1e9 in
      let rate t = if t > 0. then float_of_int chain_events /. t else 0. in
      let overhead = median -. 1. in
      ratios := (1. +. max 0. overhead) :: !ratios;
      Printf.printf "%-10s %14.0f %14.0f %8.2f%% %7d\n" name (rate t_off)
        (rate t_on)
        (100. *. overhead)
        !total_saves;
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"bench\": %S, \"events\": %d, \"off_events_per_sec\": %.0f, \
            \"on_events_per_sec\": %.0f, \"overhead_pct\": %.2f, \"saves\": %d }"
           name chain_events (rate t_off) (rate t_on)
           (100. *. overhead)
           !total_saves))
    benches;
  let geomean =
    match !ratios with
    | [] -> 1.
    | rs ->
      exp (List.fold_left (fun a r -> a +. log r) 0. rs /. float_of_int (List.length rs))
  in
  let geomean_pct = 100. *. (geomean -. 1.) in
  let budget_pct = 3.0 in
  Buffer.add_string buf
    (Printf.sprintf
       " ],\n  \"checkpoint_every_segments\": %d,\n  \
        \"segment_events\": %d,\n  \"throttle_ms\": %.0f,\n  \
        \"replays_per_sample\": %d,\n  \
        \"geomean_overhead_pct\": %.2f,\n  \"budget_pct\": %.1f\n}\n"
       every segment_events throttle_ms chain geomean_pct budget_pct);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf "geomean checkpoint overhead %.2f%% (budget %.1f%%); wrote %s\n"
    geomean_pct budget_pct out;
  if geomean_pct > budget_pct then begin
    Printf.eprintf "bench: checkpoint overhead %.2f%% exceeds %.1f%% budget\n"
      geomean_pct budget_pct;
    exit 1
  end

(* Decode-once pipelined replay vs the per-policy columnar path: spool
   each benchmark's evaluation trace into a columnar (v3) container,
   build the six harness policies from Profiling-scale plans, then time
   two ways of replaying all six from the file —

   - per-policy (the PR 8 production path, reproduced faithfully): six
     independent [Executor.run_stream] passes, each decoding the
     container end to end through the channel reader;
   - decode-once: a single [Executor.run_stream_many] fan-out over an
     mmap-backed, prefetch-pipelined stream (segment N+1 decodes on a
     spawned domain while segment N replays through all six sessions).

   Both legs run the same per-event replay loop, so the gap is decode
   and I/O alone.

   The decode-once leg wraps the stream in [Stream.prefetched] only
   when [jobs >= 2] — mirroring the harness gate: on a single
   hardware thread a producer domain just contends with the consumer.

   Differential: all fourteen streamed outcomes must be structurally
   identical to [Executor.run_packed] on the materialized trace; any
   divergence fails the run.  The JSON carries the 1.3x geomean target
   the roadmap gates on next to the measured geomean. *)
let run_pipeline_bench ~benches ~scale ~jobs ~out =
  let module Stream = Prefix_trace.Stream in
  let module Packed = Prefix_trace.Packed in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let module Pipeline = Prefix_core.Pipeline in
  let module Plan = Prefix_core.Plan in
  let module Trace_stats = Prefix_trace.Trace_stats in
  let costs = Executor.default_config.costs in
  let reps = 5 in
  let time_ns f =
    (* Best of [reps] after one warmup — replays are deterministic, so
       min is the least-noise estimator. *)
    ignore (f ());
    let best = ref Int64.max_int in
    for _ = 1 to reps do
      let t0 = Prefix_obs.Clock.now_ns () in
      ignore (f ());
      let dt = Int64.sub (Prefix_obs.Clock.now_ns ()) t0 in
      if dt < !best then best := dt
    done;
    Int64.to_float !best /. 1e9
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    ("{\n"
    ^ provenance_json ~reps ~scale:(Prefix_workloads.Workload.scale_name scale)
    ^ "  \"benches\": [");
  let all_equal = ref true in
  let speedups = ref [] in
  Printf.printf
    "=== decode-once pipelined replay vs per-policy columnar (%s scale, 7 \
     policies) ===\n"
    (Prefix_workloads.Workload.scale_name scale);
  Printf.printf "%-10s %10s %14s %14s %8s  %s\n" "bench" "events"
    "per-pol ev/s" "dec-once ev/s" "speedup" "metrics";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      (* Profiling-side plans, exactly as the harness builds them. *)
      let ptrace = wl.generate ~scale:Profiling ~seed:7 () in
      let pstats = Trace_stats.analyze_packed (Packed.of_trace ptrace) in
      let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace pstats ptrace in
      let halo_plan = Prefix_halo.Halo.plan_of_trace pstats ptrace in
      let plan v = Pipeline.plan_with_stats ~variant:v pstats ptrace in
      let plan_hot = plan Plan.Hot in
      let plan_hds = plan Plan.Hds in
      let plan_hdshot = plan Plan.HdsHot in
      let block_plan = Prefix_runtime.Block_policy.plan_of_trace ptrace in
      let cls = Policy.no_classification in
      let policies =
        [ ("baseline", fun heap -> Policy.baseline costs heap);
          ("HDS", fun heap -> Prefix_runtime.Hds_policy.policy costs heap hds_plan cls);
          ("HALO", fun heap -> Prefix_runtime.Halo_policy.policy costs heap halo_plan cls);
          ("Block",
           fun heap -> Prefix_runtime.Block_policy.policy costs heap block_plan cls);
          ("PreFix-Hot", fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan_hot cls);
          ("PreFix-HDS", fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan_hds cls);
          ("PreFix-HDS+Hot",
           fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan_hdshot cls) ]
      in
      let packed =
        Stream.to_packed (Prefix_workloads.Workload.generate_stream wl ~scale ~seed:8 ())
      in
      let events = Packed.length packed in
      let path = Filename.temp_file ("prefix-" ^ name ^ "-pipe-") ".pfxt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Prefix_trace.Columnar.write_file path packed;
          (* Re-iterable streams, reused across reps (the production
             pattern): the channel stream re-opens the file per pass,
             the mmap stream maps it once and keeps the decoder. *)
          let ch_stream = Stream.of_binary_file ~backend:`Channel path in
          let fan_stream =
            let s = Stream.of_binary_file path in
            if jobs >= 2 then Stream.prefetched s else s
          in
          let per_policy () =
            List.map (fun (_, policy) -> Executor.run_stream ~policy ch_stream) policies
          in
          let decode_once () =
            Executor.run_stream_many ~policies:(List.map snd policies) fan_stream
          in
          (* Differential leg (untimed): every streamed outcome must
             match the materialized replay. *)
          let references =
            List.map (fun (_, policy) -> Executor.run_packed ~policy packed) policies
          in
          let bench_equal = ref true in
          let check what (pname, _) (reference : Executor.outcome)
              (o : Executor.outcome) =
            if
              o.Executor.metrics <> reference.Executor.metrics
              || o.Executor.recovery <> reference.Executor.recovery
            then begin
              all_equal := false;
              bench_equal := false;
              Printf.eprintf "bench: %s: %s %s replay diverges from run_packed\n"
                name what pname
            end
          in
          let check_all what outcomes =
            List.iter2 (fun (p, r) o -> check what p r o)
              (List.combine policies references) outcomes
          in
          check_all "per-policy" (per_policy ());
          check_all "decode-once" (decode_once ());
          let t_old = time_ns per_policy in
          let t_new = time_ns decode_once in
          let total = 7 * events in
          let rate t = if t > 0. then float_of_int total /. t else 0. in
          let speedup = if t_new > 0. then t_old /. t_new else 0. in
          speedups := speedup :: !speedups;
          Printf.printf "%-10s %10d %14.0f %14.0f %7.2fx  %s\n" name events
            (rate t_old) (rate t_new) speedup
            (if !bench_equal then "identical" else "MISMATCH");
          if bi > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n    { \"bench\": %S, \"events\": %d, \
                \"per_policy_events_per_sec\": %.0f, \
                \"decode_once_events_per_sec\": %.0f, \"speedup\": %.3f }"
               name events (rate t_old) (rate t_new) speedup)))
    benches;
  let geomean =
    match !speedups with
    | [] -> 1.
    | ss ->
      exp (List.fold_left (fun a s -> a +. log (max 1e-9 s)) 0. ss
           /. float_of_int (List.length ss))
  in
  Buffer.add_string buf
    (Printf.sprintf
       " ],\n  \"geomean_speedup\": %.3f,\n  \"target_speedup\": 1.3,\n  \
        \"all_equal\": %b\n}\n"
       geomean !all_equal);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf
    "geomean decode-once speedup %.2fx over %d benches (target 1.30x); wrote %s\n"
    geomean (List.length !speedups) out;
  if not !all_equal then begin
    prerr_endline "bench: pipelined replay outcomes differ from run_packed";
    exit 1
  end

(* Interval-colored vs modulo-N recycling, plus the Block policy itself.
   Each benchmark's Profiling-scale trace (the input whose liveness the
   interval pass saw, so coloring covers every instance) is replayed
   under four policies: baseline, Block, and PreFix:HDS+Hot planned with
   --slots modulo and --slots interval.  All four replays are
   deterministic, so the gate is on simulated metrics, not wall time:

   - footprint invariants: placement never changes the memory-reference
     stream (all four replays must agree on mem_refs), and interval
     coloring — which provably never double-books a slot the profile
     covers — must not evict more than modulo-N does;
   - the headline: cycles(modulo) / cycles(interval), geomean'd, which
     shows the coloring win on lifetime-skewed workloads.

   Wall-clock events/s for the two PreFix replays is reported too
   (best-of-reps), but only the metric gate can fail the run. *)
let run_block_bench ~benches ~out =
  let module Packed = Prefix_trace.Packed in
  let module Executor = Prefix_runtime.Executor in
  let module Policy = Prefix_runtime.Policy in
  let module Pipeline = Prefix_core.Pipeline in
  let module Plan = Prefix_core.Plan in
  let module Trace_stats = Prefix_trace.Trace_stats in
  let costs = Executor.default_config.costs in
  let reps = 5 in
  let time_ns f =
    (* Best of [reps] after one warmup — replays are deterministic, so
       min is the least-noise estimator. *)
    ignore (f ());
    let best = ref Int64.max_int in
    for _ = 1 to reps do
      let t0 = Prefix_obs.Clock.now_ns () in
      ignore (f ());
      let dt = Int64.sub (Prefix_obs.Clock.now_ns ()) t0 in
      if dt < !best then best := dt
    done;
    Int64.to_float !best /. 1e9
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    ("{\n" ^ provenance_json ~reps ~scale:"profiling" ^ "  \"benches\": [");
  let all_equal = ref true in
  let speedups = ref [] in
  Printf.printf
    "=== block policy + interval-colored vs modulo-N recycling (Profiling \
     scale) ===\n";
  Printf.printf "%-10s %10s %11s %14s %14s %8s  %s\n" "bench" "events"
    "evictions" "modulo cyc" "interval cyc" "speedup" "invariants";
  List.iteri
    (fun bi name ->
      let wl = Prefix_workloads.Registry.find name in
      let trace = wl.generate ~scale:Profiling ~seed:7 () in
      let packed = Packed.of_trace trace in
      let events = Packed.length packed in
      let stats = Trace_stats.analyze_packed packed in
      let plan_with mode =
        Pipeline.plan_with_stats
          ~config:{ Pipeline.default_config with slot_mode = mode }
          ~variant:Plan.HdsHot stats trace
      in
      let plan_mod = plan_with Pipeline.Modulo in
      let plan_int = plan_with Pipeline.Interval in
      let block_plan = Prefix_runtime.Block_policy.plan_of_trace trace in
      let cls = Policy.no_classification in
      (* Replay capturing the policy record, for its eviction counters. *)
      let replay mk =
        let p = ref None in
        let policy heap =
          let pol = mk heap in
          p := Some pol;
          pol
        in
        let o = Executor.run_packed ~policy packed in
        (o, Option.get !p)
      in
      let base_o, _ = replay (fun heap -> Policy.baseline costs heap) in
      let block_o, _ =
        replay (fun heap ->
            Prefix_runtime.Block_policy.policy costs heap block_plan cls)
      in
      let prefix_replay plan () =
        replay (fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan cls)
      in
      let mod_o, mod_p = prefix_replay plan_mod () in
      let int_o, int_p = prefix_replay plan_int () in
      let cyc (o : Executor.outcome) = o.metrics.cycles.total_cycles in
      let refs (o : Executor.outcome) = o.metrics.mem_refs in
      let mod_ev = mod_p.Policy.stats.recycle_evictions in
      let int_ev = int_p.Policy.stats.recycle_evictions in
      let refs_equal =
        refs mod_o = refs base_o && refs int_o = refs base_o
        && refs block_o = refs base_o
      in
      let ok = refs_equal && int_ev <= mod_ev in
      if not ok then all_equal := false;
      let speedup = if cyc int_o > 0. then cyc mod_o /. cyc int_o else 0. in
      speedups := speedup :: !speedups;
      let t_mod = time_ns (fun () -> prefix_replay plan_mod ()) in
      let t_int = time_ns (fun () -> prefix_replay plan_int ()) in
      let rate t = if t > 0. then float_of_int events /. t else 0. in
      let block_pct =
        100. *. (cyc block_o -. cyc base_o) /. Float.max 1. (cyc base_o)
      in
      Printf.printf "%-10s %10d %5d->%-5d %14.0f %14.0f %7.3fx  %s\n" name events
        mod_ev int_ev (cyc mod_o) (cyc int_o) speedup
        (if ok then "ok" else "VIOLATED");
      if bi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"bench\": %S, \"events\": %d, \"baseline_cycles\": %.0f, \
            \"block_cycles\": %.0f, \"block_vs_baseline_pct\": %.2f, \
            \"modulo_cycles\": %.0f, \"interval_cycles\": %.0f, \
            \"cycle_speedup\": %.4f, \"modulo_evictions\": %d, \
            \"interval_evictions\": %d, \"modulo_events_per_sec\": %.0f, \
            \"interval_events_per_sec\": %.0f, \"invariants_ok\": %b }"
           name events (cyc base_o) (cyc block_o) block_pct (cyc mod_o)
           (cyc int_o) speedup mod_ev int_ev (rate t_mod) (rate t_int) ok))
    benches;
  let geomean =
    match !speedups with
    | [] -> 1.
    | ss ->
      exp (List.fold_left (fun a s -> a +. log (max 1e-9 s)) 0. ss
           /. float_of_int (List.length ss))
  in
  Buffer.add_string buf
    (Printf.sprintf
       " ],\n  \"geomean_cycle_speedup\": %.4f,\n  \"all_equal\": %b\n}\n"
       geomean !all_equal);
  Prefix_util.Fsio.atomic_write_string out (Buffer.contents buf);
  Printf.printf
    "geomean interval-over-modulo cycle speedup %.3fx over %d benches; wrote %s\n"
    geomean (List.length !speedups) out;
  if not !all_equal then begin
    prerr_endline "bench: block/interval replay broke a footprint invariant";
    exit 1
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Pull a `--jobs N` pair out of the argument list wherever it sits. *)
  let rec extract_jobs acc = function
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n -> (Some n, List.rev_append acc rest)
      | None ->
        prerr_endline "bench: --jobs expects an integer";
        exit 2)
    | [ "--jobs" ] ->
      prerr_endline "bench: --jobs expects an integer";
      exit 2
    | a :: rest -> extract_jobs (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let jobs_opt, args = extract_jobs [] args in
  let jobs = match jobs_opt with Some j -> max 1 j | None -> Pool.default_jobs () in
  Harness.set_jobs jobs;
  match args with
  | [ "micro" ] ->
    print_endline "=== Bechamel micro-benchmarks (analysis pipeline) ===";
    run_micro ()
  | "csv" :: rest ->
    let dir = match rest with [ d ] -> d | _ -> "results" in
    Prefix_experiments.Export.write_all dir
  | "reps" :: rest ->
    let n = match rest with [ n ] -> int_of_string n | _ -> 10 in
    run_reps ~jobs n
  | "throughput" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> (benches, out)
      | a :: _ ->
        Printf.eprintf "bench: throughput: unknown argument %S\n" a;
        exit 2
    in
    let benches, out =
      parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_replay.json" rest
    in
    run_throughput ~benches ~out
  | "stream" :: rest ->
    let rec parse ~benches ~scale ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~scale ~out rest
      | "--scale" :: s :: rest -> (
        match s with
        | "profiling" -> parse ~benches ~scale:Prefix_workloads.Workload.Profiling ~out rest
        | "long" -> parse ~benches ~scale:Prefix_workloads.Workload.Long ~out rest
        | "huge" -> parse ~benches ~scale:Prefix_workloads.Workload.Huge ~out rest
        | _ ->
          Printf.eprintf "bench: stream: unknown scale %S\n" s;
          exit 2)
      | "--out" :: f :: rest -> parse ~benches ~scale ~out:f rest
      | [] -> (benches, scale, out)
      | a :: _ ->
        Printf.eprintf "bench: stream: unknown argument %S\n" a;
        exit 2
    in
    let benches, scale, out =
      parse ~benches:Prefix_workloads.Registry.names
        ~scale:Prefix_workloads.Workload.Long ~out:"BENCH_stream.json" rest
    in
    run_stream_bench ~benches ~scale ~out
  | "columnar" :: rest ->
    let rec parse ~benches ~scale ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~scale ~out rest
      | "--scale" :: s :: rest -> (
        match s with
        | "profiling" -> parse ~benches ~scale:Prefix_workloads.Workload.Profiling ~out rest
        | "long" -> parse ~benches ~scale:Prefix_workloads.Workload.Long ~out rest
        | "huge" -> parse ~benches ~scale:Prefix_workloads.Workload.Huge ~out rest
        | _ ->
          Printf.eprintf "bench: columnar: unknown scale %S\n" s;
          exit 2)
      | "--out" :: f :: rest -> parse ~benches ~scale ~out:f rest
      | [] -> (benches, scale, out)
      | a :: _ ->
        Printf.eprintf "bench: columnar: unknown argument %S\n" a;
        exit 2
    in
    let benches, scale, out =
      parse ~benches:Prefix_workloads.Registry.names
        ~scale:Prefix_workloads.Workload.Long ~out:"BENCH_columnar.json" rest
    in
    run_columnar_bench ~benches ~scale ~out
  | "pipeline" :: rest ->
    let rec parse ~benches ~scale ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~scale ~out rest
      | "--scale" :: s :: rest -> (
        match s with
        | "profiling" -> parse ~benches ~scale:Prefix_workloads.Workload.Profiling ~out rest
        | "long" -> parse ~benches ~scale:Prefix_workloads.Workload.Long ~out rest
        | "huge" -> parse ~benches ~scale:Prefix_workloads.Workload.Huge ~out rest
        | _ ->
          Printf.eprintf "bench: pipeline: unknown scale %S\n" s;
          exit 2)
      | "--out" :: f :: rest -> parse ~benches ~scale ~out:f rest
      | [] -> (benches, scale, out)
      | a :: _ ->
        Printf.eprintf "bench: pipeline: unknown argument %S\n" a;
        exit 2
    in
    let benches, scale, out =
      parse ~benches:Prefix_workloads.Registry.names
        ~scale:Prefix_workloads.Workload.Long ~out:"BENCH_pipeline.json" rest
    in
    run_pipeline_bench ~benches ~scale ~jobs ~out
  | "block" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> (benches, out)
      | a :: _ ->
        Printf.eprintf "bench: block: unknown argument %S\n" a;
        exit 2
    in
    let benches, out =
      parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_block.json" rest
    in
    run_block_bench ~benches ~out
  | "telemetry" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> (benches, out)
      | a :: _ ->
        Printf.eprintf "bench: telemetry: unknown argument %S\n" a;
        exit 2
    in
    let benches, out =
      parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_telemetry.json" rest
    in
    run_telemetry ~benches ~out
  | "checkpoint" :: rest ->
    let rec parse ~benches ~out = function
      | "--benches" :: bs :: rest ->
        parse ~benches:(String.split_on_char ',' bs) ~out rest
      | "--out" :: f :: rest -> parse ~benches ~out:f rest
      | [] -> (benches, out)
      | a :: _ ->
        Printf.eprintf "bench: checkpoint: unknown argument %S\n" a;
        exit 2
    in
    let benches, out =
      parse ~benches:Prefix_workloads.Registry.names ~out:"BENCH_checkpoint.json" rest
    in
    run_checkpoint_bench ~benches ~out
  | [] ->
    print_endline "=== PreFix paper reproduction: all tables and figures ===";
    (* Replay the 13 benchmarks across the pool once; every experiment
       below then hits the memo cache. *)
    ignore (Harness.run_all ());
    print_string (R.run_all ());
    print_endline "=== done ==="
  | ids ->
    List.iter
      (fun id ->
        match R.find id with
        | Some e -> print_string (e.run ())
        | None ->
          Printf.printf "unknown experiment %S; available: %s, micro\n" id
            (String.concat ", " (List.map (fun (e : R.experiment) -> e.id) R.all
                                  @ [ "csv"; "reps"; "throughput"; "stream";
                                      "columnar"; "pipeline"; "block";
                                      "telemetry"; "checkpoint" ])))
      ids
