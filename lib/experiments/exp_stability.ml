(* Seed stability: the paper reports times "averaged over 10 runs and
   the variations across the runs are small".  Our runs are
   deterministic given a seed, so the analogous check is robustness of
   the Table 3 deltas to the workload seed: regenerate each benchmark
   with different seeds (fresh object ids, fresh random access orders)
   and report mean ± spread of the best-PreFix delta. *)

module T = Prefix_util.Tablefmt
module M = Prefix_runtime.Metrics
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Packed = Prefix_trace.Packed
module Workload = Prefix_workloads.Workload
module Span = Prefix_obs.Span

let title = "Stability: best-PreFix delta across workload seeds (3 seeds)"

let seeds = [ 7; 1007; 90210 ]

(* A subset keeps the experiment affordable; the benchmarks chosen are
   the most seed-sensitive (random access orders). *)
let benchmarks = [ "mcf"; "ft"; "health"; "leela"; "analyzer" ]

(* The harness's own run is seed [Harness.seed] at Long scale, so that
   row is read from its memo; only the other seeds are computed here,
   planned like the harness (one profile and one shared detection, the
   configured slot mode) and replaying one packed evaluation trace. *)
let delta_for name seed =
  if seed = Harness.seed && Harness.eval_scale () = Workload.Long then begin
    let r = Harness.find name in
    Harness.time_delta r (fst (Harness.best_prefix r))
  end
  else begin
    let wl = Prefix_workloads.Registry.find name in
    let prof, long_trace =
      Span.with_ ~cat:"harness" "generate-traces" (fun () ->
          ( wl.generate ~scale:Workload.Profiling ~seed (),
            wl.generate ~scale:Workload.Long ~seed:(seed + 1) () ))
    in
    let long =
      Span.with_ ~cat:"harness" "pack-traces" (fun () -> Packed.of_trace long_trace)
    in
    let config = Harness.effective_pipeline_config () in
    let profile = Pipeline.profile ~config prof in
    let ohds = Pipeline.detect ~config (Pipeline.profile_stats profile) prof in
    let costs = Harness.exec_config.costs in
    let base =
      Executor.run_packed ~config:Harness.exec_config
        ~policy:(fun heap -> Policy.baseline costs heap)
        long
    in
    List.fold_left
      (fun acc variant ->
        let plan = Pipeline.plan_of_profile ~config ~ohds ~variant profile in
        let o =
          Executor.run_packed ~config:Harness.exec_config
            ~policy:(fun heap ->
              Prefix_runtime.Prefix_policy.policy costs heap plan
                Policy.no_classification)
            long
        in
        Float.min acc (M.time_pct_change ~baseline:base.metrics o.metrics))
      infinity
      [ Plan.Hot; Plan.Hds; Plan.HdsHot ]
  end

let report () =
  let t =
    T.create ~headers:[ "benchmark"; "mean best %"; "min"; "max"; "stddev"; "paper best %" ]
  in
  List.iter
    (fun name ->
      let ds = List.map (delta_for name) seeds in
      let p = Paper_data.find_table3 name in
      T.add_row t
        [ name;
          T.fmt_pct (Prefix_util.Stats.mean ds);
          T.fmt_pct (List.fold_left min infinity ds);
          T.fmt_pct (List.fold_left max neg_infinity ds);
          (* The 3 seeds are a sample of all possible seeds, so the
             spread uses the n-1 estimator, not the population one. *)
          T.fmt_f (Prefix_util.Stats.stddev_sample ds);
          T.fmt_pct p.best_pct ])
    benchmarks;
  title ^ "\n" ^ T.render t
