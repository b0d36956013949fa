(* Tests for Prefix_core: Layout (Algorithm 1), Context, Counters,
   Offsets, Recycle, Plan, Instrument, Pipeline. *)

module Hds = Prefix_hds.Hds
module Layout = Prefix_core.Layout
module Context = Prefix_core.Context
module Counters = Prefix_core.Counters
module Offsets = Prefix_core.Offsets
module Recycle = Prefix_core.Recycle
module Plan = Prefix_core.Plan
module Instrument = Prefix_core.Instrument
module Pipeline = Prefix_core.Pipeline
module Trace_stats = Prefix_trace.Trace_stats
module B = Prefix_workloads.Builder

let mk objs refs = Hds.make ~objs ~refs

(* ---- Layout (Algorithm 1) ---- *)

let test_layout_unchanged_inclusion () =
  let r = Layout.reconstitute [ mk [ 1; 2 ] 10; mk [ 3; 4 ] 5 ] in
  Alcotest.(check int) "both kept" 2 (List.length r.rhds);
  Alcotest.(check (list int)) "no singletons" [] r.singletons

let test_layout_merge () =
  let r = Layout.reconstitute [ mk [ 1; 2 ] 10; mk [ 2; 3 ] 5 ] in
  Alcotest.(check int) "merged" 1 (List.length r.rhds);
  (* The shared object (2) must sit between the two private ones. *)
  Alcotest.(check (list int)) "order: shared in the middle" [ 1; 2; 3 ]
    (Hds.objs (List.hd r.rhds))

let test_layout_merge_once () =
  (* Third overlapping stream cannot merge into an already-merged RHDS:
     its remainder becomes a new stream. *)
  let r = Layout.reconstitute [ mk [ 1; 2 ] 10; mk [ 2; 3 ] 8; mk [ 1; 4; 5 ] 6 ] in
  Alcotest.(check int) "split produced a second stream" 2 (List.length r.rhds);
  Alcotest.(check bool) "remainder stream present" true
    (List.exists (fun h -> Hds.objs h = [ 4; 5 ]) r.rhds)

let test_layout_singleton () =
  let r = Layout.reconstitute [ mk [ 1; 2 ] 10; mk [ 2; 3 ] 8; mk [ 1; 6 ] 2 ] in
  Alcotest.(check (list int)) "lone leftover is a singleton" [ 6 ] r.singletons

let test_layout_duplicate_stream_skipped () =
  let r = Layout.reconstitute [ mk [ 1; 2 ] 10; mk [ 2; 1 ] 4 ] in
  Alcotest.(check int) "nothing to do for subset" 1 (List.length r.rhds)

let test_layout_fig2 () =
  (* The paper's Figure 2: all 12 objects placed, 10 in streams. *)
  let r = Prefix_experiments.Exp_fig2.reconstitute () in
  let order = Layout.placement_order r in
  Alcotest.(check int) "12 objects placed" 12 (List.length order);
  Alcotest.(check bool) "streams disjoint" true (Layout.disjoint r.rhds);
  (* Every object of the paper's final layout is placed. *)
  List.iter
    (fun o -> Alcotest.(check bool) (string_of_int o) true (List.mem o order))
    Prefix_experiments.Exp_fig2.paper_layout;
  (* The top stream matches the paper's {2018, 2009, 2012} with the
     shared object 2009 in the middle (the mirror order is an equally
     good layout, so we check adjacency rather than direction). *)
  (match Hds.objs (List.hd r.rhds) with
  | [ a; 2009; b ] when (a = 2018 && b = 2012) || (a = 2012 && b = 2018) -> ()
  | other ->
    Alcotest.failf "unexpected first stream order: [%s]"
      (String.concat ";" (List.map string_of_int other)))

let test_layout_coverage () =
  let r = Layout.reconstitute [ mk [ 1; 2 ] 10; mk [ 2; 3 ] 8 ] in
  Alcotest.(check int) "both covered" 2
    (List.length (List.filter (fun c -> c = Layout.Fully_covered) r.coverage))

let prop_layout_disjoint_and_complete =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (pair (list_size (int_range 2 6) (int_range 1 20)) (int_range 1 1000)))
  in
  QCheck.Test.make ~name:"RHDS are disjoint; placement has no duplicates" ~count:300
    (QCheck.make gen)
    (fun streams ->
      let ohds =
        List.filter_map
          (fun (objs, refs) ->
            let h = mk objs refs in
            if Hds.cardinal h >= 2 then Some h else None)
          streams
      in
      if ohds = [] then true
      else begin
        let r = Layout.reconstitute ohds in
        let order = Layout.placement_order r in
        Layout.disjoint r.rhds
        && List.length order = List.length (List.sort_uniq compare order)
        (* singletons never overlap stream objects *)
        && List.for_all
             (fun s -> not (List.exists (fun h -> Hds.mem s h) r.rhds))
             r.singletons
      end)

(* ---- Context ---- *)

let test_context_all () =
  match Context.infer ~hot_instances:[ 1; 2; 3 ] ~total_instances:3 with
  | Context.All { upto = Some 3 } -> ()
  | p -> Alcotest.failf "expected All, got %s" (Format.asprintf "%a" Context.pp p)

let test_context_regular () =
  match Context.infer ~hot_instances:[ 1; 3; 5; 7 ] ~total_instances:20 with
  | Context.Regular { start = 1; step = 2; count = 4 } -> ()
  | p -> Alcotest.failf "expected Regular, got %s" (Format.asprintf "%a" Context.pp p)

let test_context_consecutive_is_fixed () =
  (* Step-1 runs report as fixed sets, matching Table 2's labels. *)
  match Context.infer ~hot_instances:[ 1; 2; 3 ] ~total_instances:33 with
  | Context.Fixed [ 1; 2; 3 ] -> ()
  | p -> Alcotest.failf "expected Fixed, got %s" (Format.asprintf "%a" Context.pp p)

let test_context_fixed () =
  match Context.infer ~hot_instances:[ 1; 3; 8 ] ~total_instances:10 with
  | Context.Fixed [ 1; 3; 8 ] -> ()
  | p -> Alcotest.failf "expected Fixed, got %s" (Format.asprintf "%a" Context.pp p)

let test_context_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Context.infer: no hot instances")
    (fun () -> ignore (Context.infer ~hot_instances:[] ~total_instances:5));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Context.infer: instance id out of range") (fun () ->
      ignore (Context.infer ~hot_instances:[ 7 ] ~total_instances:5))

let test_context_matches () =
  let reg = Context.Regular { start = 1; step = 2; count = 8 } in
  Alcotest.(check bool) "first odd" true (Context.matches reg 1);
  Alcotest.(check bool) "odd in range" true (Context.matches reg 15);
  Alcotest.(check bool) "even" false (Context.matches reg 4);
  Alcotest.(check bool) "past count" false (Context.matches reg 17);
  let all = Context.All { upto = None } in
  Alcotest.(check bool) "all unbounded" true (Context.matches all 1_000_000);
  let fixed = Context.Fixed [ 2; 5 ] in
  Alcotest.(check bool) "fixed member" true (Context.matches fixed 5);
  Alcotest.(check bool) "fixed non-member" false (Context.matches fixed 4)

let prop_context_roundtrip =
  QCheck.Test.make ~name:"inferred pattern matches exactly the hot ids" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 12) (int_range 1 40))
    (fun ids ->
      let ids = List.sort_uniq compare ids in
      let total = 45 in
      let p = Context.infer ~hot_instances:ids ~total_instances:total in
      List.for_all (fun i -> Context.matches p i) ids
      &&
      (* no false positives within the profiled range, except that All
         legitimately covers everything when ids = all *)
      match p with
      | Context.All _ -> List.length ids = total
      | _ ->
        List.for_all
          (fun i -> List.mem i ids || not (Context.matches p i))
          (List.init total (fun i -> i + 1)))

let test_context_cost () =
  Alcotest.(check int) "all is free" 0 (Context.check_cost_instrs (Context.All { upto = None }));
  Alcotest.(check bool) "fixed costs more with more ids" true
    (Context.check_cost_instrs (Context.Fixed [ 1 ])
    < Context.check_cost_instrs (Context.Fixed [ 1; 2; 3; 4; 5 ]))

(* ---- Counters ---- *)

let alloc pos obj hot = (pos, obj, hot)

let site site allocs =
  { Counters.site;
    pos = Array.of_list (List.map (fun (p, _, _) -> p) allocs);
    obj = Array.of_list (List.map (fun (_, o, _) -> o) allocs);
    hot = Array.of_list (List.map (fun (_, _, h) -> h) allocs) }

let test_counters_simulate () =
  let sites =
    [ site 1 [ alloc 0 10 true; alloc 4 12 false ];
      site 2 [ alloc 2 11 true ] ]
  in
  Alcotest.(check (list (triple int int bool)))
    "interleaved numbering"
    [ (1, 10, true); (2, 11, true); (3, 12, false) ]
    (Counters.simulate sites)

let test_counters_share_tandem () =
  (* Two sites alternating, hot first: combined ids {1,2} — shareable. *)
  let sites =
    [ site 1 [ alloc 0 10 true; alloc 10 20 false ];
      site 2 [ alloc 1 11 true; alloc 11 21 false ] ]
  in
  let groups = Counters.share sites in
  Alcotest.(check int) "one counter" 1 (Counters.num_counters groups)

let test_counters_no_share () =
  (* Hot ids would be {1, 12}: not consecutive, bigger than max_fixed 1. *)
  let cold_run base =
    List.init 10 (fun i -> alloc (base + i) (100 + base + i) false)
  in
  let sites =
    [ site 1 (alloc 0 10 true :: cold_run 1);
      site 2 (alloc 20 11 true :: cold_run 21) ]
  in
  let groups = Counters.share ~max_fixed:1 sites in
  Alcotest.(check int) "two counters" 2 (Counters.num_counters groups)

let test_counters_rejects_siteless_hot () =
  Alcotest.check_raises "no hot object"
    (Invalid_argument "Counters.share: site 3 allocates no hot object") (fun () ->
      ignore (Counters.share [ site 3 [ alloc 0 5 false ] ]))

let test_counters_disable () =
  let sites =
    [ site 1 [ alloc 0 10 true ];
      site 2 [ alloc 1 11 true ] ]
  in
  Alcotest.(check int) "unshared" 2
    (Counters.num_counters (Counters.share ~enable:false sites))

(* ---- Offsets ---- *)

let test_offsets_assign () =
  let o = Offsets.assign ~size_of:(fun obj -> obj * 10) [ 3; 1; 2 ] in
  let slots = Offsets.slots o in
  Alcotest.(check int) "three slots" 3 (List.length slots);
  let s0 = List.nth slots 0 and s1 = List.nth slots 1 and s2 = List.nth slots 2 in
  Alcotest.(check int) "first at 0" 0 s0.offset;
  Alcotest.(check int) "rounded size" 32 s0.size;
  Alcotest.(check int) "packed" 32 s1.offset;
  Alcotest.(check int) "packed 2" 48 s2.offset;
  Alcotest.(check int) "total" 80 (Offsets.region_bytes o);
  Alcotest.(check (option int)) "index of 1" (Some 1) (Offsets.slot_of_obj o 1);
  Alcotest.(check (option int)) "unknown" None (Offsets.slot_of_obj o 99)

let test_offsets_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Offsets.assign: duplicate object")
    (fun () -> ignore (Offsets.assign ~size_of:(fun _ -> 16) [ 1; 1 ]))

let test_offsets_truncate () =
  let o = Offsets.assign ~size_of:(fun _ -> 32) [ 1; 2; 3; 4 ] in
  let o = Offsets.truncate o ~max_bytes:70 in
  Alcotest.(check int) "kept two" 2 (List.length (Offsets.slots o));
  Alcotest.(check (option int)) "third dropped" None (Offsets.slot_of_obj o 3)

let test_offsets_extend () =
  let o = Offsets.assign ~size_of:(fun _ -> 32) [ 1 ] in
  let o, first = Offsets.extend o ~count:3 ~size:64 in
  Alcotest.(check int) "first new slot" 1 first;
  Alcotest.(check int) "total slots" 4 (List.length (Offsets.slots o));
  Alcotest.(check int) "region grows" (32 + (3 * 64)) (Offsets.region_bytes o)

(* A large order (scrambled ids, sizes that need rounding) against a
   reference fold: slot i starts where slot i-1 ends, and every object
   maps to its own position in the order. *)
let test_offsets_large_order () =
  let n = 20_000 in
  let order = List.init n (fun i -> ((i * 7919) mod n) - 500) in
  let size_of obj = 1 + (abs obj mod 97) in
  let o = Offsets.assign ~size_of order in
  let expected, total =
    List.fold_left
      (fun (acc, off) obj ->
        let size = (size_of obj + 15) / 16 * 16 in
        ({ Offsets.offset = off; size } :: acc, off + size))
      ([], 0) order
  in
  Alcotest.(check (list (pair int int)))
    "slots"
    (List.rev_map (fun (s : Offsets.slot) -> (s.offset, s.size)) expected)
    (List.map (fun (s : Offsets.slot) -> (s.offset, s.size)) (Offsets.slots o));
  Alcotest.(check int) "total" total (Offsets.region_bytes o);
  List.iteri
    (fun i obj -> Alcotest.(check (option int)) "slot_of_obj" (Some i) (Offsets.slot_of_obj o obj))
    order

(* ---- Recycle ---- *)

let churn_trace ~live ~total () =
  let b = B.create ~seed:5 () in
  let q = Queue.create () in
  for _ = 1 to total do
    if Queue.length q >= live then B.free b (Queue.pop q);
    let o = B.alloc b ~site:1 64 in
    for k = 0 to 4 do
      B.access b o (k * 16 mod 64)
    done;
    Queue.push o q
  done;
  B.trace b

let test_recycle_accepts_churn () =
  let stats = Trace_stats.analyze (churn_trace ~live:4 ~total:200 ()) in
  match Recycle.analyze stats ~sites:[ 1 ] with
  | Some d ->
    Alcotest.(check int) "slots cover peak liveness with headroom" 5 d.n_slots;
    Alcotest.(check int) "slot bytes" 64 d.slot_bytes
  | None -> Alcotest.fail "expected recycling"

let test_recycle_rejects_long_lived () =
  (* Everything stays live: recycling impossible. *)
  let b = B.create ~seed:6 () in
  let objs = List.init 100 (fun _ -> B.alloc b ~site:1 64) in
  List.iter (fun o -> B.access b o 0) objs;
  let stats = Trace_stats.analyze (B.trace b) in
  Alcotest.(check bool) "no recycling" true (Recycle.analyze stats ~sites:[ 1 ] = None)

let test_recycle_rejects_few_allocs () =
  let stats = Trace_stats.analyze (churn_trace ~live:2 ~total:10 ()) in
  Alcotest.(check bool) "too few" true (Recycle.analyze stats ~sites:[ 1 ] = None)

let test_max_live_combined () =
  let stats = Trace_stats.analyze (churn_trace ~live:7 ~total:100 ()) in
  Alcotest.(check int) "peak" 7 (Recycle.max_live_combined stats [ 1 ])

(* ---- Plan validation + Instrument ---- *)

let tiny_plan () =
  let trace = churn_trace ~live:3 ~total:100 () in
  Pipeline.plan ~variant:Plan.Hot trace

let test_plan_validates () =
  let plan = tiny_plan () in
  match Plan.validate plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_plan_validate_catches_bad_slot () =
  let plan = tiny_plan () in
  let bad =
    { plan with
      counters =
        List.map
          (fun (cp : Plan.counter_plan) ->
            { cp with recycle = None; placements = [ (1, 9999) ] })
          plan.counters }
  in
  match Plan.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted out-of-range slot"

let test_instrument_monotone () =
  let plan = tiny_plan () in
  let size f r = Instrument.added_bytes ~plan ~free_sites:f ~realloc_sites:r () in
  Alcotest.(check bool) "more free sites cost more" true (size 10 0 > size 1 0);
  Alcotest.(check bool) "stub present" true (size 0 0 > 0);
  Alcotest.(check int) "optimized = base + added" (1000 + size 2 1)
    (Instrument.optimized_size ~baseline:1000 ~plan ~free_sites:2 ~realloc_sites:1 ())

(* ---- Pipeline ---- *)

let stream_trace () =
  let b = B.create ~seed:7 () in
  (* hot trio from site 1, each buried in cold blocks from site 9 *)
  let hot =
    List.init 3 (fun _ ->
        let o = B.alloc b ~site:1 32 in
        ignore (Prefix_workloads.Patterns.cold_block b ~site:9 ~size:128 3);
        o)
  in
  for _ = 1 to 120 do
    List.iter (fun o -> B.access b o 0) hot
  done;
  B.trace b

let test_pipeline_hot_variant () =
  let plan = Pipeline.plan ~variant:Plan.Hot (stream_trace ()) in
  Alcotest.(check int) "three placements" 3 (List.length plan.slots);
  Alcotest.(check int) "one site" 1 (Plan.num_sites plan);
  (match Plan.validate plan with Ok () -> () | Error e -> Alcotest.fail e);
  (* site 1's hot ids are 1,2,3 of 3 -> All *)
  let cp = List.hd plan.counters in
  Alcotest.(check string) "pattern" "all" (Prefix_core.Context.kind_name cp.pattern)

let test_pipeline_hds_variant_places_stream () =
  let plan = Pipeline.plan ~variant:Plan.Hds (stream_trace ()) in
  Alcotest.(check bool) "stream objects placed" true (List.length plan.slots >= 2)

let test_pipeline_cap () =
  let config = { Pipeline.default_config with max_prealloc_bytes = Some 64 } in
  let plan = Pipeline.plan ~config ~variant:Plan.Hot (stream_trace ()) in
  Alcotest.(check bool) "region capped" true (plan.region_bytes <= 64)

let test_pipeline_recycling_in_all_variants () =
  let trace = churn_trace ~live:3 ~total:300 () in
  List.iter
    (fun v ->
      let plan = Pipeline.plan ~variant:v trace in
      Alcotest.(check bool)
        (Plan.variant_name v ^ " recycles")
        true
        (List.exists (fun (cp : Plan.counter_plan) -> cp.recycle <> None) plan.counters))
    [ Plan.Hot; Plan.Hds; Plan.HdsHot ]

let test_pipeline_no_recycling_when_disabled () =
  let trace = churn_trace ~live:3 ~total:300 () in
  let config = { Pipeline.default_config with recycling = false } in
  let plan = Pipeline.plan ~config ~variant:Plan.Hot trace in
  Alcotest.(check bool) "no recycle blocks" true
    (List.for_all (fun (cp : Plan.counter_plan) -> cp.recycle = None) plan.counters)

(* ---- Lifetimes ---- *)

let lifetime_trace () =
  let b = B.create ~seed:31 () in
  (* persistent: never freed *)
  let p = B.alloc b ~site:1 32 in
  (* phase: freed two thirds in *)
  let ph = B.alloc b ~site:1 32 in
  (* transient: freed almost immediately *)
  let t = B.alloc b ~site:1 32 in
  for _ = 1 to 4 do
    B.access b t 0
  done;
  B.free b t;
  for _ = 1 to 80 do
    B.access b p 0;
    B.access b ph 0
  done;
  B.free b ph;
  for _ = 1 to 250 do
    B.access b p 0
  done;
  (B.trace b, p, ph, t)

let test_lifetime_classes () =
  let trace, p, ph, t = lifetime_trace () in
  let stats = Trace_stats.analyze trace in
  let n = Prefix_trace.Trace.length trace in
  let module L = Prefix_core.Lifetimes in
  Alcotest.(check string) "persistent" "persistent" (L.class_name (L.classify stats ~trace_len:n p));
  Alcotest.(check string) "phase" "phase" (L.class_name (L.classify stats ~trace_len:n ph));
  Alcotest.(check string) "transient" "transient" (L.class_name (L.classify stats ~trace_len:n t))

let test_lifetime_regroup () =
  let trace, p, ph, t = lifetime_trace () in
  let stats = Trace_stats.analyze trace in
  let n = Prefix_trace.Trace.length trace in
  let module L = Prefix_core.Lifetimes in
  (* Mixed input order comes back grouped longest-lived first. *)
  Alcotest.(check (list int)) "grouped" [ p; ph; t ] (L.regroup stats ~trace_len:n [ t; p; ph ]);
  (* Same multiset. *)
  let objs = [ ph; t; p ] in
  Alcotest.(check (list int)) "permutation" (List.sort compare objs)
    (List.sort compare (L.regroup stats ~trace_len:n objs));
  Alcotest.(check bool) "report renders" true
    (String.length (L.report stats ~trace_len:n objs) > 0)

let test_lifetime_pipeline_option () =
  let trace, p, ph, t = lifetime_trace () in
  let config = { Pipeline.default_config with lifetime_arenas = true; recycling = false } in
  let plan = Pipeline.plan ~config ~variant:Plan.Hot trace in
  (match Plan.validate plan with Ok () -> () | Error e -> Alcotest.fail e);
  (* With grouping on, the persistent object is placed before the
     transient one regardless of allocation order. *)
  let pos o =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = o then i else go (i + 1) rest
    in
    go 0 plan.placed_objects
  in
  ignore ph;
  if pos p >= 0 && pos t >= 0 then
    Alcotest.(check bool) "persistent before transient" true (pos p < pos t)

let suite =
  [ ( "layout",
      [ Alcotest.test_case "unchanged inclusion" `Quick test_layout_unchanged_inclusion;
        Alcotest.test_case "merge" `Quick test_layout_merge;
        Alcotest.test_case "merge at most once" `Quick test_layout_merge_once;
        Alcotest.test_case "singleton" `Quick test_layout_singleton;
        Alcotest.test_case "duplicate skipped" `Quick test_layout_duplicate_stream_skipped;
        Alcotest.test_case "figure 2" `Quick test_layout_fig2;
        Alcotest.test_case "coverage" `Quick test_layout_coverage;
        QCheck_alcotest.to_alcotest prop_layout_disjoint_and_complete ] );
    ( "context",
      [ Alcotest.test_case "all" `Quick test_context_all;
        Alcotest.test_case "regular" `Quick test_context_regular;
        Alcotest.test_case "consecutive is fixed" `Quick test_context_consecutive_is_fixed;
        Alcotest.test_case "fixed" `Quick test_context_fixed;
        Alcotest.test_case "invalid" `Quick test_context_invalid;
        Alcotest.test_case "matches" `Quick test_context_matches;
        Alcotest.test_case "check cost" `Quick test_context_cost;
        QCheck_alcotest.to_alcotest prop_context_roundtrip ] );
    ( "counters",
      [ Alcotest.test_case "simulate" `Quick test_counters_simulate;
        Alcotest.test_case "share tandem" `Quick test_counters_share_tandem;
        Alcotest.test_case "no share" `Quick test_counters_no_share;
        Alcotest.test_case "rejects hot-free site" `Quick test_counters_rejects_siteless_hot;
        Alcotest.test_case "sharing disabled" `Quick test_counters_disable ] );
    ( "offsets",
      [ Alcotest.test_case "assign" `Quick test_offsets_assign;
        Alcotest.test_case "duplicate" `Quick test_offsets_duplicate;
        Alcotest.test_case "truncate" `Quick test_offsets_truncate;
        Alcotest.test_case "extend" `Quick test_offsets_extend;
        Alcotest.test_case "20k-object order ≡ reference fold" `Quick
          test_offsets_large_order ] );
    ( "recycle",
      [ Alcotest.test_case "accepts churn" `Quick test_recycle_accepts_churn;
        Alcotest.test_case "rejects long-lived" `Quick test_recycle_rejects_long_lived;
        Alcotest.test_case "rejects few allocs" `Quick test_recycle_rejects_few_allocs;
        Alcotest.test_case "max live combined" `Quick test_max_live_combined ] );
    ( "plan",
      [ Alcotest.test_case "validates" `Quick test_plan_validates;
        Alcotest.test_case "catches bad slot" `Quick test_plan_validate_catches_bad_slot;
        Alcotest.test_case "instrument model" `Quick test_instrument_monotone ] );
    ( "pipeline",
      [ Alcotest.test_case "hot variant" `Quick test_pipeline_hot_variant;
        Alcotest.test_case "hds variant" `Quick test_pipeline_hds_variant_places_stream;
        Alcotest.test_case "prealloc cap" `Quick test_pipeline_cap;
        Alcotest.test_case "recycling in all variants" `Quick
          test_pipeline_recycling_in_all_variants;
        Alcotest.test_case "recycling disabled" `Quick
          test_pipeline_no_recycling_when_disabled ] );
    ( "lifetimes",
      [ Alcotest.test_case "classes" `Quick test_lifetime_classes;
        Alcotest.test_case "regroup" `Quick test_lifetime_regroup;
        Alcotest.test_case "pipeline option" `Quick test_lifetime_pipeline_option ] ) ]
