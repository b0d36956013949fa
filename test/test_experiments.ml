(* Tests for the experiments layer: paper-data integrity and the key
   end-to-end claims on the two smallest benchmarks. *)

module P = Prefix_experiments.Paper_data
module H = Prefix_experiments.Harness
module M = Prefix_runtime.Metrics

let test_paper_data_complete () =
  Alcotest.(check int) "13 benchmarks" 13 (List.length P.benchmarks);
  List.iter
    (fun name ->
      ignore (P.find_table2 name);
      ignore (P.find_table3 name);
      ignore (P.find_table4 name);
      ignore (P.find_table5 name);
      ignore (P.find_table6 name))
    P.benchmarks

let test_paper_headline () =
  (* The abstract's headline: average best-PreFix reduction 21.7%, range
     2.77%..74%. *)
  let bests = List.map (fun (r : P.table3_row) -> -.r.best_pct) P.table3 in
  let avg = Prefix_util.Stats.mean bests in
  Alcotest.(check bool) "average ~21.7" true (abs_float (avg -. 21.7) < 0.5);
  Alcotest.(check (Alcotest.float 0.01)) "min 2.77" 2.77
    (List.fold_left min infinity bests);
  Alcotest.(check (Alcotest.float 0.01)) "max 74" 74. (List.fold_left max 0. bests)

let test_fig2_layout_matches_paper () =
  let r = Prefix_experiments.Exp_fig2.reconstitute () in
  let order = Prefix_core.Layout.placement_order r in
  Alcotest.(check (list int)) "same object set as the paper's layout"
    (List.sort compare Prefix_experiments.Exp_fig2.paper_layout)
    (List.sort compare order)

(* End-to-end claims on one small benchmark (libc is the smallest). *)

let test_libc_end_to_end () =
  let r = H.find "libc" in
  let d p = H.time_delta r p in
  (* PreFix beats the baseline. *)
  Alcotest.(check bool) "best PreFix wins" true (d (fst (H.best_prefix r)) < -1.);
  (* PreFix beats HDS [8]. *)
  Alcotest.(check bool) "beats HDS" true (d (fst (H.best_prefix r)) < d r.hds);
  (* No pollution: every object PreFix captured is profiled-hot or at
     least vastly better than HDS's ratio. *)
  let purity (pr : H.policy_run) =
    if pr.metrics.M.region_objects = 0 then 1.
    else
      float_of_int pr.metrics.M.region_hot_objects
      /. float_of_int pr.metrics.M.region_objects
  in
  Alcotest.(check bool) "PreFix purer than HDS" true
    (purity r.prefix_hdshot >= purity r.hds)

let test_swissmap_recycling_claims () =
  let r = H.find "swissmap" in
  (* All three PreFix variants perform the same on recycling benchmarks
     (§3.3). *)
  let c (p : H.policy_run) = p.metrics.M.cycles.total_cycles in
  let hot = c r.prefix_hot and hds = c r.prefix_hds and both = c r.prefix_hdshot in
  Alcotest.(check bool) "variants equal" true
    (abs_float (hot -. hds) /. hot < 0.01 && abs_float (hot -. both) /. hot < 0.01);
  (* Recycling avoids a large number of malloc/free calls. *)
  Alcotest.(check bool) "calls avoided" true
    (r.prefix_hot.metrics.M.calls_avoided > 1000);
  (* And wins time. *)
  Alcotest.(check bool) "faster" true (H.time_delta r r.prefix_hot < -5.)

let test_report_registry () =
  let module R = Prefix_experiments.Report in
  Alcotest.(check bool) "all experiments present" true (List.length R.all >= 12);
  Alcotest.(check bool) "find" true (R.find "table3" <> None);
  Alcotest.(check bool) "unknown" true (R.find "nope" = None)

let test_fig10_spans_cover () =
  (* Trace generation, packing and analysis run under spans, so a
     fig10 series is attributed almost entirely to named stages. *)
  let module Span = Prefix_obs.Span in
  Prefix_obs.Control.set true;
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Prefix_obs.Control.set false;
      Span.reset ())
  @@ fun () ->
  ignore
    (Span.with_ "fig10-series" (fun () -> Prefix_experiments.Exp_fig10.series "mcf"));
  let spans = Span.completed () in
  let root = List.find (fun (s : Span.completed) -> s.name = "fig10-series") spans in
  let children =
    List.filter
      (fun (s : Span.completed) -> s.parent = Some "fig10-series" && s.tid = root.tid)
      spans
  in
  let covered = List.fold_left (fun acc (s : Span.completed) -> Int64.add acc s.dur_ns) 0L children in
  let share = Int64.to_float covered /. Int64.to_float root.dur_ns in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span") true
        (List.exists (fun (s : Span.completed) -> s.name = name) children))
    [ "generate-traces"; "pack-traces"; "trace-analysis" ];
  if share < 0.95 then
    Alcotest.failf "direct children cover %.1f%% of the series span (< 95%%)"
      (100. *. share)

let test_pipeline_spans_cover () =
  (* Planning runs under named stages only: each variant's "pipeline"
     span is covered by its direct children (health's profile, the
     largest planning cost per benchmark). *)
  let module Span = Prefix_obs.Span in
  let module Pipeline = Prefix_core.Pipeline in
  let module Plan = Prefix_core.Plan in
  let wl = Prefix_workloads.Registry.find "health" in
  let prof = wl.generate ~scale:Profiling ~seed:Prefix_experiments.Harness.seed () in
  let profile = Pipeline.profile prof in
  let ohds = Pipeline.detect (Pipeline.profile_stats profile) prof in
  Prefix_obs.Control.set true;
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Prefix_obs.Control.set false;
      Span.reset ())
  @@ fun () ->
  List.iter
    (fun variant -> ignore (Pipeline.plan_of_profile ~ohds ~variant profile))
    [ Plan.Hot; Plan.Hds; Plan.HdsHot ];
  let spans = Span.completed () in
  let roots = List.filter (fun (s : Span.completed) -> s.name = "pipeline") spans in
  Alcotest.(check int) "one pipeline span per variant" 3 (List.length roots);
  List.iter
    (fun (root : Span.completed) ->
      let inside (s : Span.completed) =
        s.tid = root.tid
        && s.depth = root.depth + 1
        && s.start_ns >= root.start_ns
        && Int64.add s.start_ns s.dur_ns <= Int64.add root.start_ns root.dur_ns
      in
      let children = List.filter inside spans in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " span") true
            (List.exists (fun (s : Span.completed) -> s.name = name) children))
        [ "reconstitution"; "placement-order"; "counter-sharing"; "recycle-analysis";
          "offset-assignment"; "plan" ];
      let covered =
        List.fold_left (fun acc (s : Span.completed) -> Int64.add acc s.dur_ns) 0L children
      in
      let share = Int64.to_float covered /. Int64.to_float root.dur_ns in
      if share < 0.95 then
        Alcotest.failf "direct children cover %.1f%% of a pipeline span (< 95%%)"
          (100. *. share))
    roots

let suite =
  [ ( "experiments",
      [ Alcotest.test_case "paper data complete" `Quick test_paper_data_complete;
        Alcotest.test_case "paper headline" `Quick test_paper_headline;
        Alcotest.test_case "fig2 layout" `Quick test_fig2_layout_matches_paper;
        Alcotest.test_case "libc end to end" `Slow test_libc_end_to_end;
        Alcotest.test_case "swissmap recycling" `Slow test_swissmap_recycling_claims;
        Alcotest.test_case "report registry" `Quick test_report_registry;
        Alcotest.test_case "fig10 series spans cover its time" `Quick test_fig10_spans_cover;
        Alcotest.test_case "pipeline spans cover planning" `Quick test_pipeline_spans_cover ] ) ]
