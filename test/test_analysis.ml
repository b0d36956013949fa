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
      one (kept below as the oracle): same pair weights, same groups.
   4. The other mining kernels against their originals (kept below
      verbatim as oracles): the flat-buffer LCS against the matrix DP
      (same triples), the early-exit [dominant_periods] against the
      full scan (same lags), and the buffered [hot_sequence] /
      [hot_sequence_stream] against the list-based ones (same
      sequences); on small alphabets, where ties are common, with ids
      on both sides of zero, and on all 13 benchmarks at profiling and
      Long scale.
   5. Mining is attributable: a benchmark run shows each kernel's span
      once under each detection. *)

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
module Packed = Prefix_trace.Packed
module Lcs = Prefix_hds.Lcs
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

let oracle_lcs_table a b =
  let n = Array.length a and m = Array.length b in
  let dp = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = 1 to n do
    for j = 1 to m do
      dp.(i).(j) <-
        (if a.(i - 1) = b.(j - 1) then dp.(i - 1).(j - 1) + 1
         else max dp.(i - 1).(j) dp.(i).(j - 1))
    done
  done;
  dp

let oracle_lcs_with_positions a b =
  let dp = oracle_lcs_table a b in
  let rec back i j acc =
    if i = 0 || j = 0 then acc
    else if a.(i - 1) = b.(j - 1) && dp.(i).(j) = dp.(i - 1).(j - 1) + 1 then
      back (i - 1) (j - 1) ((a.(i - 1), i - 1, j - 1) :: acc)
    else if dp.(i - 1).(j) >= dp.(i).(j - 1) then back (i - 1) j acc
    else back i (j - 1) acc
  in
  back (Array.length a) (Array.length b) []

let oracle_dominant_periods ?(config = D.default_config) seq =
  let n = Array.length seq in
  if n < 8 then []
  else begin
    let max_lag = min config.max_lag (n / 2) in
    let samples = 192 in
    let score lag =
      let span = n - lag in
      if span <= 0 then 0.
      else begin
        let stride = max 1 (span / samples) in
        let hits = ref 0 and total = ref 0 in
        let i = ref 0 in
        while !i < span do
          incr total;
          if seq.(!i) = seq.(!i + lag) then incr hits;
          i := !i + stride
        done;
        if !total = 0 then 0. else float_of_int !hits /. float_of_int !total
      end
    in
    let scored = ref [] in
    for lag = 1 to max_lag do
      let s = score lag in
      if s >= 0.5 then scored := (lag, s) :: !scored
    done;
    let by_lag = List.sort (fun (a, _) (b, _) -> compare a b) !scored in
    let chosen = ref [] in
    List.iter
      (fun (l, _) ->
        let is_multiple l0 = l mod l0 = 0 || (l mod l0 < l0 / 16) || (l0 - (l mod l0) < l0 / 16) in
        if List.length !chosen < config.max_periods
           && not (List.exists is_multiple !chosen)
        then chosen := !chosen @ [ l ])
      by_lag;
    !chosen
  end

let oracle_hot_table stats =
  let hot = Hashtbl.create 256 in
  List.iter
    (fun (o : Trace_stats.obj_info) -> Hashtbl.replace hot o.obj ())
    (Trace_stats.hot_objects stats);
  hot

let oracle_hot_sequence stats trace =
  let hot = oracle_hot_table stats in
  let out = ref [] in
  let last = ref min_int in
  Trace.iter
    (fun e ->
      match (e : Event.t) with
      | Access { obj; _ } when Hashtbl.mem hot obj && obj <> !last ->
        out := obj :: !out;
        last := obj
      | _ -> ())
    trace;
  Array.of_list (List.rev !out)

let oracle_hot_sequence_stream stats stream =
  let hot = oracle_hot_table stats in
  let out = ref [] in
  let last = ref min_int in
  Stream.iter_segments stream (fun ~base:_ seg ->
      Packed.iteri
        ~access:(fun _ ~obj ~offset:_ ~write:_ ~thread:_ ->
          if Hashtbl.mem hot obj && obj <> !last then begin
            out := obj :: !out;
            last := obj
          end)
        seg);
  Array.of_list (List.rev !out)

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
    [ "hds-detection"; "hds-policy-plan"; "halo-plan"; "block-plan"; "long-run-classification" ];
  Alcotest.(check int) "one pipeline span per variant" 3 (count "pipeline");
  (* Each mining kernel runs once under the profile's detection and once
     under the long run's classification. *)
  List.iter
    (fun kernel ->
      List.iter
        (fun parent ->
          Alcotest.(check int)
            (Printf.sprintf "%s under %s" kernel parent)
            1
            (List.length
               (List.filter
                  (fun (s : Span.completed) -> s.name = kernel && s.parent = Some parent)
                  (Span.completed ()))))
        [ "hds-detection"; "long-run-classification" ];
      Alcotest.(check int) kernel 2 (count kernel))
    [ "hot-sequence"; "periods"; "lcs-mining"; "ngram-mining" ]

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

(* ---- 4. LCS, periods and hot sequences ---- *)

(* Sequences over a 2..6-symbol alphabet, shifted so that ids fall on
   both sides of zero: long runs of ties for the LCS traceback and many
   lags near the 1/2 score threshold. *)
let small_alphabet_seq max_len =
  QCheck.Gen.(
    let* alphabet = int_range 2 6 in
    let* shift = int_range (-3) 0 in
    let* len = int_range 0 max_len in
    array_size (return len) (map (fun x -> x + shift) (int_bound (alphabet - 1))))

let triples = Alcotest.(list (triple int int int))

let qcheck_lcs_matches_oracle =
  QCheck.Test.make ~name:"flat LCS ≡ matrix LCS on small alphabets" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair (array int) (array int))
       QCheck.Gen.(pair (small_alphabet_seq 70) (small_alphabet_seq 70)))
    (fun (a, b) -> Lcs.lcs_with_positions a b = oracle_lcs_with_positions a b)

(* The scratch buffer is per domain: two domains mining at once get the
   same triples as the oracle. *)
let test_lcs_domains () =
  let pairs seed =
    let rng = Rng.create seed in
    List.init 40 (fun _ ->
        let len () = 1 + Rng.int rng 120 in
        let sym () = Rng.int rng 4 - 2 in
        (Array.init (len ()) (fun _ -> sym ()), Array.init (len ()) (fun _ -> sym ())))
  in
  let run seed () = List.map (fun (a, b) -> Lcs.lcs_with_positions a b) (pairs seed) in
  let d1 = Domain.spawn (run 1) and d2 = Domain.spawn (run 2) in
  List.iter
    (fun (seed, got) ->
      Alcotest.(check (list triples))
        (Printf.sprintf "domain %d" seed)
        (List.map (fun (a, b) -> oracle_lcs_with_positions a b) (pairs seed))
        got)
    [ (1, Domain.join d1); (2, Domain.join d2) ]

(* A planted period over a small alphabet with random noise, and a
   random search horizon and period budget. *)
let periods_gen =
  QCheck.Gen.(
    let* pattern = small_alphabet_seq 40 in
    let pattern = if Array.length pattern = 0 then [| 0 |] else pattern in
    let* len = int_range 0 700 in
    let* noise = list_size (int_bound 60) (pair (int_bound (max 0 (len - 1))) (int_range (-3) 5)) in
    let seq = Array.init len (fun i -> pattern.(i mod Array.length pattern)) in
    List.iter (fun (i, v) -> if i < len then seq.(i) <- v) noise;
    let* max_lag = int_range 1 400 in
    let* max_periods = int_range 0 4 in
    return (seq, { D.default_config with max_lag; max_periods }))

let qcheck_periods_match_oracle =
  QCheck.Test.make ~name:"early-exit periods ≡ full scan" ~count:500
    (QCheck.make
       ~print:(fun (seq, (c : D.config)) ->
         Printf.sprintf "max_lag=%d max_periods=%d seq=%s" c.max_lag c.max_periods
           (QCheck.Print.(array int) seq))
       periods_gen)
    (fun (seq, config) -> D.dominant_periods ~config seq = oracle_dominant_periods ~config seq)

(* Every object id of [trace] scaled by [k]: ids stay unique, and a
   large [k] spreads them too far apart for a dense table. *)
let scale_ids k trace =
  Trace.of_list
    (List.map
       (fun (e : Event.t) ->
         match e with
         | Alloc a -> Event.Alloc { a with obj = a.obj * k }
         | Access a -> Event.Access { a with obj = a.obj * k }
         | Free f -> Event.Free { f with obj = f.obj * k }
         | Realloc r -> Event.Realloc { r with obj = r.obj * k }
         | Compute _ -> e)
       (Trace.to_list trace))

let qcheck_hot_sequence_matches_oracle =
  QCheck.Test.make ~name:"buffered hot sequence ≡ list-based on random traces" ~count:300
    QCheck.(triple small_nat (oneofl [ 1; 1_000_003; 1 lsl 56 ]) (int_range 1 64))
    (fun (seed, k, segment_events) ->
      let trace = scale_ids k (random_trace seed) in
      let stats = Trace_stats.analyze trace in
      let stream () = Stream.of_trace ~segment_events trace in
      let expected = oracle_hot_sequence stats trace in
      expected = D.hot_sequence stats trace
      && oracle_hot_sequence_stream stats (stream ()) = expected
      && D.hot_sequence_stream stats (stream ()) = expected)

(* Ids far apart, negative, and at the extremes of the int range. *)
let qcheck_ngrams_sparse_ids =
  QCheck.Test.make ~name:"n-gram miner ≡ original with sparse and extreme ids" ~count:300
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         let* seq, cfg, prefill = seq_gen in
         let* ids = oneofl [ [| min_int; -1; 0; max_int; 17; 1 lsl 40 |]; [| -5_000_000; 3; 9_999_999; 42; -1; 7 |] ] in
         return (Array.map (fun x -> ids.(x)) seq, cfg, prefill)))
    (fun (seq, cfg, _) -> mined D.mine_ngrams cfg seq = mined oracle_mine_ngrams cfg seq)

(* The LCS windows [mine_lcs] compares: each phase window against its
   next two recurrences, for every dominant period. *)
let lcs_windows (cfg : D.config) seq =
  let n = Array.length seq in
  List.concat_map
    (fun lag ->
      let segment = min cfg.segment (max 8 (min lag ((n - lag) / 3))) in
      if n - lag - segment <= 0 then []
      else begin
        let n_phases = max 1 (min cfg.windows_per_lag (lag / segment)) in
        let phase_stride = max segment (lag / n_phases) in
        List.concat_map
          (fun k ->
            List.filter_map
              (fun rep ->
                let a = k * phase_stride in
                let b = a + (rep * lag) in
                if b + segment <= n then Some (Array.sub seq a segment, Array.sub seq b segment)
                else None)
              [ 1; 2 ])
          (List.init n_phases Fun.id)
      end)
    (oracle_dominant_periods ~config:cfg seq)

let check_kernels ~scale (name, trace, stats) =
  let label what = Printf.sprintf "%s %s %s" name scale what in
  let stream () = Stream.of_trace ~segment_events:4096 trace in
  let seq = oracle_hot_sequence stats trace in
  Alcotest.(check (array int)) (label "hot_sequence") seq (D.hot_sequence stats trace);
  Alcotest.(check (array int))
    (label "hot_sequence_stream")
    (oracle_hot_sequence_stream stats (stream ()))
    (D.hot_sequence_stream stats (stream ()));
  Alcotest.(check (list int)) (label "periods") (oracle_dominant_periods seq) (D.dominant_periods seq);
  List.iteri
    (fun i (a, b) ->
      Alcotest.check triples
        (label (Printf.sprintf "LCS window %d" i))
        (oracle_lcs_with_positions a b) (Lcs.lcs_with_positions a b))
    (lcs_windows D.default_config seq)

let test_kernels_profiling () = List.iter (check_kernels ~scale:"profiling") (Lazy.force profiles)

(* Long scale, one benchmark at a time so only one evaluation trace is
   alive; the n-gram miner is checked here too (the profiling-scale
   check is in section 1). *)
let test_kernels_long () =
  List.iter
    (fun (wl : Workload.t) ->
      let trace = wl.generate ~scale:Workload.Long ~seed:8 () in
      let stats = Trace_stats.analyze trace in
      check_kernels ~scale:"long" (wl.name, trace, stats);
      let seq = D.hot_sequence stats trace in
      Alcotest.check table (wl.name ^ " long n-grams")
        (mined oracle_mine_ngrams D.default_config seq)
        (mined D.mine_ngrams D.default_config seq))
    Registry.all

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
        QCheck_alcotest.to_alcotest qcheck_halo_matches_oracle;
        QCheck_alcotest.to_alcotest qcheck_lcs_matches_oracle;
        Alcotest.test_case "flat LCS ≡ matrix LCS on two domains" `Quick test_lcs_domains;
        QCheck_alcotest.to_alcotest qcheck_periods_match_oracle;
        QCheck_alcotest.to_alcotest qcheck_hot_sequence_matches_oracle;
        QCheck_alcotest.to_alcotest qcheck_ngrams_sparse_ids;
        Alcotest.test_case "mining kernels ≡ originals on 13 benchmarks (profiling)" `Slow
          test_kernels_profiling;
        Alcotest.test_case "mining kernels ≡ originals on 13 benchmarks (Long)" `Slow
          test_kernels_long ] ) ]
