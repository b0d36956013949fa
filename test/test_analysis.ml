(* Differential tests for the analysis layer.

   1. The allocation-free n-gram miner against the original list-based
      one (kept below verbatim as the oracle): equal (key, order, hits)
      tables, merged in the same order, on random sequences over tiny
      alphabets (so permutations of one object set collide often), on a
      sequence large enough to resize the original's table several
      times, and on the hot sequences of all 13 benchmarks.
   2. Detection shared across plans: plans built from one shared OHDS
      equal plans that detect for themselves, the HDS policy's
      [plan_of_ohds] equals [plan_of_trace], and a benchmark run shows
      one detection span.
   3. HALO's matrix-based affinity against the original table-based
      one (kept below as the oracle): same pair weights, same groups. *)

module D = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Halo = Prefix_halo.Halo
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Hds_policy = Prefix_runtime.Hds_policy
module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Event = Prefix_trace.Event
module Stream = Prefix_trace.Stream
module Registry = Prefix_workloads.Registry
module Workload = Prefix_workloads.Workload
module Rng = Prefix_util.Rng

(* ---- oracles: the original implementations ---- *)

let oracle_mine_ngrams (cfg : D.config) seq tbl =
  let n = Array.length seq in
  let counts : (int list, D.candidate) Hashtbl.t = Hashtbl.create 4096 in
  for k = 2 to cfg.ngram_max do
    for i = 0 to n - k do
      let gram = Array.to_list (Array.sub seq i k) in
      let distinct = List.length (List.sort_uniq compare gram) = k in
      if distinct then begin
        match Hashtbl.find_opt counts gram with
        | Some c -> c.hits <- c.hits + 1
        | None -> Hashtbl.replace counts gram { D.order = gram; hits = 1 }
      end
    done
  done;
  let top = Hashtbl.fold (fun _ (c : D.candidate) acc -> max acc c.hits) counts 0 in
  let floor = max (max cfg.min_occurrences cfg.ngram_min_hits) (top / 50) in
  Hashtbl.iter
    (fun gram (c : D.candidate) ->
      if c.hits >= floor then begin
        match Hashtbl.find_opt tbl (List.sort compare gram) with
        | Some (existing : D.candidate) -> existing.hits <- existing.hits + c.hits
        | None ->
          Hashtbl.replace tbl (List.sort compare gram) { D.order = c.order; hits = c.hits }
      end)
    counts

let oracle_affinity_matrix (config : Halo.config) stats trace hot_ctxs =
  let is_hot_ctx = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace is_hot_ctx c ()) hot_ctxs;
  let ctx_of_obj = Hashtbl.create 1024 in
  List.iter
    (fun (o : Trace_stats.obj_info) ->
      if Hashtbl.mem is_hot_ctx o.ctx then Hashtbl.replace ctx_of_obj o.obj o.ctx)
    (Trace_stats.objects stats);
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let ctx_accesses : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let window = Queue.create () in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  Trace.iter
    (fun e ->
      match (e : Event.t) with
      | Access { obj; _ } -> (
        match Hashtbl.find_opt ctx_of_obj obj with
        | None -> ()
        | Some ctx ->
          bump ctx_accesses ctx;
          Queue.iter
            (fun other ->
              if other <> ctx then begin
                let key = (min ctx other, max ctx other) in
                bump counts key
              end)
            window;
          Queue.push ctx window;
          if Queue.length window > config.affinity_window then ignore (Queue.pop window))
      | _ -> ())
    trace;
  let accesses c = Option.value ~default:0 (Hashtbl.find_opt ctx_accesses c) in
  Hashtbl.fold
    (fun (a, b) ticks acc ->
      let denom = min (accesses a) (accesses b) in
      if denom = 0 then acc
      else ((a, b), float_of_int ticks /. float_of_int denom) :: acc)
    counts []
  |> List.sort (fun (_, x) (_, y) -> compare y x)

let oracle_group (config : Halo.config) pairs hot_ctxs =
  let parent = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace parent c c) hot_ctxs;
  let rec find c =
    let p = Hashtbl.find parent c in
    if p = c then c
    else begin
      let root = find p in
      Hashtbl.replace parent c root;
      root
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter (fun ((a, b), w) -> if w >= config.min_affinity then union a b) pairs;
  let groups : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let r = find c in
      Hashtbl.replace groups r (c :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
    hot_ctxs;
  Hashtbl.fold (fun _ g acc -> List.sort compare g :: acc) groups []
  |> List.sort compare

(* ---- shared inputs ---- *)

(* Each benchmark's profiling trace and its analysis, generated once for
   every test below. *)
let profiles =
  lazy
    (List.map
       (fun (wl : Workload.t) ->
         let trace = wl.generate ~scale:Workload.Profiling ~seed:7 () in
         (wl.name, trace, Trace_stats.analyze trace))
       Registry.all)

(* The table as (key, order, hits) in fold order: equal lists mean equal
   contents inserted in the same order. *)
let mined miner cfg ?(prefill = []) seq =
  let tbl : (int list, D.candidate) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun (key, order) -> Hashtbl.replace tbl key { D.order; hits = 1 }) prefill;
  miner cfg seq tbl;
  Hashtbl.fold (fun key (c : D.candidate) acc -> (key, c.order, c.hits) :: acc) tbl []

let table = Alcotest.(list (triple (list int) (list int) int))

(* ---- 1. n-gram miner ---- *)

let seq_gen =
  QCheck.Gen.(
    let* alphabet = int_range 2 6 in
    let* len = int_range 0 400 in
    let* seq = array_size (return len) (int_bound (alphabet - 1)) in
    let* ngram_max = int_range 1 5 in
    let* ngram_min_hits = int_range 1 6 in
    let* min_occurrences = int_range 1 3 in
    let* prefill = list_size (int_bound 3) (pair (int_bound 5) (int_bound 5)) in
    return (seq, { D.default_config with ngram_max; ngram_min_hits; min_occurrences }, prefill))

let print_case (seq, (cfg : D.config), prefill) =
  Printf.sprintf "ngram_max=%d min_hits=%d min_occ=%d prefill=%d seq=[%s]" cfg.ngram_max
    cfg.ngram_min_hits cfg.min_occurrences (List.length prefill)
    (String.concat ";" (Array.to_list (Array.map string_of_int seq)))

let qcheck_ngrams_match_oracle =
  QCheck.Test.make ~name:"n-gram miner ≡ original miner on small alphabets" ~count:500
    (QCheck.make ~print:print_case seq_gen)
    (fun (seq, cfg, pairs) ->
      (* Pre-existing candidates (as the LCS pass leaves them) must be
         extended, never replaced, in both miners. *)
      let prefill =
        List.filter_map
          (fun (a, b) -> if a = b then None else Some (List.sort compare [ a; b ], [ b; a ]))
          pairs
        |> List.sort_uniq (fun (k1, _) (k2, _) -> compare k1 k2)
      in
      mined D.mine_ngrams cfg ~prefill seq = mined oracle_mine_ngrams cfg ~prefill seq)

let test_ngrams_resize_order () =
  (* Tens of thousands of distinct grams, all frequent: the original
     table resized from 4096 to 65536 buckets before it was iterated. *)
  let rng = Rng.create 11 in
  let seq = Array.init 40_000 (fun _ -> Rng.int rng 3000) in
  let cfg = { D.default_config with ngram_min_hits = 1; min_occurrences = 1 } in
  let expected = mined oracle_mine_ngrams cfg seq in
  Alcotest.(check bool) "many grams" true (List.length expected > 8192 * 4);
  Alcotest.check table "same table" expected (mined D.mine_ngrams cfg seq)

let test_ngrams_workloads () =
  List.iter
    (fun (name, trace, stats) ->
      let seq = D.hot_sequence stats trace in
      Alcotest.check table name
        (mined oracle_mine_ngrams D.default_config seq)
        (mined D.mine_ngrams D.default_config seq))
    (Lazy.force profiles)

let hds_list = Alcotest.testable (Fmt.Dump.list Hds.pp) ( = )

let test_detect_stream_workloads () =
  List.iter
    (fun (name, trace, stats) ->
      Alcotest.check hds_list name
        (D.detect_with_stats stats trace)
        (D.detect_stream stats (Stream.of_trace ~segment_events:4096 trace)))
    (Lazy.force profiles)

(* ---- 2. shared detection ---- *)

let plan = Alcotest.testable (fun ppf (p : Plan.t) -> Fmt.string ppf (Plan.variant_name p.variant)) ( = )

let test_shared_ohds_plans () =
  List.iter
    (fun (name, trace, stats) ->
      List.iter
        (fun config ->
          let ohds = Pipeline.detect ~config stats trace in
          List.iter
            (fun variant ->
              Alcotest.check plan
                (Printf.sprintf "%s %s %s" name (Plan.variant_name variant)
                   (Pipeline.slot_mode_name config.Pipeline.slot_mode))
                (Pipeline.plan_with_stats ~config ~variant stats trace)
                (Pipeline.plan_with_stats ~config ~ohds ~variant stats trace))
            [ Plan.Hot; Plan.Hds; Plan.HdsHot ])
        [ Pipeline.default_config;
          { Pipeline.default_config with slot_mode = Pipeline.Interval } ])
    (Lazy.force profiles)

let test_hds_policy_plan_of_ohds () =
  List.iter
    (fun (name, trace, stats) ->
      let ohds = Pipeline.detect stats trace in
      Alcotest.(check (list int)) name
        (Hds_policy.plan_of_trace stats trace).interesting_sites
        (Hds_policy.plan_of_ohds stats ohds).interesting_sites)
    (Lazy.force profiles)

(* One benchmark run detects once and gives every planner its own span. *)
let test_planner_spans () =
  let module Span = Prefix_obs.Span in
  Prefix_obs.Control.set true;
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Prefix_obs.Control.set false;
      Span.reset ())
  @@ fun () ->
  ignore (Prefix_experiments.Harness.run_benchmark (Registry.find "libc"));
  let count name =
    List.length (List.filter (fun (s : Span.completed) -> s.name = name) (Span.completed ()))
  in
  List.iter
    (fun name -> Alcotest.(check int) name 1 (count name))
    [ "hds-detection"; "hds-policy-plan"; "halo-plan"; "block-plan" ];
  Alcotest.(check int) "one pipeline span per variant" 3 (count "pipeline")

(* ---- 3. HALO affinity ---- *)

let check_halo ?(config = Halo.default_config) name stats trace =
  let planned = Halo.plan_of_trace ~config stats trace in
  let oracle_pairs = oracle_affinity_matrix config stats trace planned.hot_ctxs in
  let pairs = Halo.affinity_matrix config stats trace planned.hot_ctxs in
  let by_key l = List.sort compare l in
  Alcotest.(check (list (pair (pair int int) (float 0.))))
    (name ^ " pair weights") (by_key oracle_pairs) (by_key pairs);
  Alcotest.(check (list (list int)))
    (name ^ " groups")
    (oracle_group config oracle_pairs planned.hot_ctxs)
    planned.groups

let test_halo_workloads () =
  List.iter (fun (name, trace, stats) -> check_halo name stats trace) (Lazy.force profiles)

(* Random traces over a handful of contexts, with object ids on both
   sides of zero. *)
let random_trace seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 40 in
  let first = Rng.int rng 20 - 10 in
  let allocs =
    List.init n (fun i ->
        Event.Alloc
          { obj = first + i;
            site = Rng.int rng 6;
            ctx = Rng.int rng 8;
            size = 16 * (1 + Rng.int rng 4);
            thread = 0 })
  in
  let accesses =
    List.init (Rng.int rng 800) (fun _ ->
        (* Skewed towards low ids so some contexts are hot and some not. *)
        let obj = first + min (Rng.int rng n) (Rng.int rng n) in
        Event.Access { obj; offset = 0; write = false; thread = 0 })
  in
  Trace.of_list (allocs @ accesses)

let qcheck_halo_matches_oracle =
  QCheck.Test.make ~name:"HALO affinity ≡ original on random traces" ~count:300
    QCheck.(pair small_nat (int_range 0 70))
    (fun (seed, window) ->
      let trace = random_trace seed in
      let stats = Trace_stats.analyze trace in
      let config = { Halo.default_config with affinity_window = window } in
      check_halo ~config "random" stats trace;
      true)

let suite =
  [ ( "analysis",
      [ QCheck_alcotest.to_alcotest qcheck_ngrams_match_oracle;
        Alcotest.test_case "n-gram table resize order" `Quick test_ngrams_resize_order;
        Alcotest.test_case "n-gram miner ≡ original on 13 benchmarks" `Slow
          test_ngrams_workloads;
        Alcotest.test_case "detect_stream ≡ detect_with_stats on 13 benchmarks" `Slow
          test_detect_stream_workloads;
        Alcotest.test_case "plans with shared OHDS ≡ self-detected" `Slow
          test_shared_ohds_plans;
        Alcotest.test_case "plan_of_ohds ≡ plan_of_trace" `Slow test_hds_policy_plan_of_ohds;
        Alcotest.test_case "one hds-detection span per benchmark" `Quick test_planner_spans;
        Alcotest.test_case "HALO affinity ≡ original on 13 benchmarks" `Slow
          test_halo_workloads;
        QCheck_alcotest.to_alcotest qcheck_halo_matches_oracle ] ) ]
