module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Event = Prefix_trace.Event
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream

type method_ = Lcs | Sequitur

type config = {
  coverage : float;
  segment : int;
  max_gap : int;
  min_occurrences : int;
  max_streams : int;
  max_stream_len : int;
  max_lag : int;
  max_periods : int;
  windows_per_lag : int;
  ngram_max : int;
  ngram_min_hits : int;
}

let default_config =
  { coverage = 0.9;
    segment = 256;
    max_gap = 4;
    min_occurrences = 2;
    max_streams = 64;
    max_stream_len = 32;
    max_lag = 16384;
    max_periods = 3;
    windows_per_lag = 32;
    ngram_max = 4;
    ngram_min_hits = 6 }

let hot_table stats =
  let hot = Hashtbl.create 256 in
  List.iter
    (fun (o : Trace_stats.obj_info) -> Hashtbl.replace hot o.obj ())
    (Trace_stats.hot_objects stats);
  hot

let hot_sequence stats trace =
  let hot = hot_table stats in
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

(* Streaming variant: the pruned sequence (hot accesses, adjacent
   duplicates collapsed) is far smaller than the trace, so mining stays
   in memory while the trace itself never is. *)
let hot_sequence_stream stats stream =
  let hot = hot_table stats in
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

(* Sampled autocorrelation: for each candidate lag, the fraction of
   sampled positions i with seq.(i) = seq.(i + lag).  Periodic traversal
   patterns light up at (multiples of) their period. *)
let dominant_periods ?(config = default_config) seq =
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
    (* Periods are exact in pruned-sequence position space and object
       ids rarely repeat within a period, so near-miss lags score zero:
       every lag must be probed.  The sampled score keeps the full scan
       cheap (max_lag * samples comparisons). *)
    let scored = ref [] in
    for lag = 1 to max_lag do
      let s = score lag in
      if s >= 0.5 then scored := (lag, s) :: !scored
    done;
    (* Prefer the smallest strong lags (fundamental periods rather than
       their multiples), dropping near-multiples of already-chosen ones. *)
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

(* Candidate accumulation: canonical key is the sorted member list; we keep
   the first-seen adjacency order and count occurrences. *)
type candidate = { order : int list; mutable hits : int }

let add_candidate tbl objs =
  let distinct =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun o ->
        if Hashtbl.mem seen o then false
        else begin
          Hashtbl.replace seen o ();
          true
        end)
      objs
  in
  if List.length distinct >= 2 then begin
    let key = List.sort compare distinct in
    match Hashtbl.find_opt tbl key with
    | Some c -> c.hits <- c.hits + 1
    | None -> Hashtbl.replace tbl key { order = distinct; hits = 1 }
  end

let cap_run cfg run =
  if List.length run > cfg.max_stream_len then
    List.filteri (fun i _ -> i < cfg.max_stream_len) run
  else run

(* Windows are sampled at period-aligned positions: the window at phase
   [p] is compared with the windows exactly one and two periods later,
   so the same recurring content is matched repeatedly and candidate
   occurrence counts accumulate (a window compared at arbitrary offsets
   would see different objects every time and never reach the
   min_occurrences threshold). *)
let mine_lcs cfg seq tbl =
  let n = Array.length seq in
  let periods = dominant_periods ~config:cfg seq in
  List.iter
    (fun lag ->
      (* Short sequences (or short periods) get proportionally smaller
         windows so that there is always room for two recurrences. *)
      let segment = min cfg.segment (max 8 (min lag ((n - lag) / 3))) in
      let span = n - lag - segment in
      if span > 0 then begin
        (* Phases cover the period at [segment] granularity, bounded by
           the window budget. *)
        let n_phases = max 1 (min cfg.windows_per_lag (lag / segment)) in
        let phase_stride = max segment (lag / n_phases) in
        for k = 0 to n_phases - 1 do
          let base = k * phase_stride in
          (* Compare the phase window against its next two recurrences. *)
          List.iter
            (fun rep ->
              let a = base and b = base + (rep * lag) in
              if b + segment <= n && a + segment <= n then begin
                let w1 = Array.sub seq a segment in
                let w2 = Array.sub seq b segment in
                let matches = Lcs.lcs_with_positions w1 w2 in
                let runs = Lcs.split_runs ~max_gap:cfg.max_gap matches in
                List.iter (fun run -> add_candidate tbl (cap_run cfg run)) runs
              end)
            [ 1; 2 ]
        done
      end)
    periods

(* Frequent n-gram mining: hot data streams that recur at irregular
   distances (a fixed chain consulted from otherwise unordered scans)
   have no usable autocorrelation peak, but their adjacent k-grams
   repeat verbatim.  Count every k-gram of distinct objects and promote
   the frequent ones to candidates.  Incidental repeats of unrelated
   digrams are filtered by the [ngram_min_hits] floor.

   Counting allocates nothing per position: each k has an
   open-addressing table whose slots hold a gram's first position in
   [seq] (the gram itself is the slice [seq.(p) .. seq.(p+k-1)]) and its
   hit count.  Lists are built only for grams that clear the floor. *)

type gram_table = {
  mutable first : int array;  (** first position of the slot's gram; -1 = empty *)
  mutable counts : int array;
  mutable size : int;
}

let slice_hash seq i k =
  let h = ref k in
  for j = i to i + k - 1 do
    h := (!h lxor seq.(j)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let slice_equal seq a b k =
  let j = ref 0 in
  while !j < k && seq.(a + !j) = seq.(b + !j) do
    incr j
  done;
  !j = k

let all_distinct seq i k =
  let ok = ref true and a = ref i in
  while !ok && !a < i + k - 1 do
    let b = ref (!a + 1) in
    while !ok && !b < i + k do
      if seq.(!a) = seq.(!b) then ok := false;
      incr b
    done;
    incr a
  done;
  !ok

(* Linear probe for the gram at [i]: its slot, or the empty slot where
   it belongs. *)
let probe t seq k i =
  let mask = Array.length t.first - 1 in
  let s = ref (slice_hash seq i k land mask) in
  while t.first.(!s) >= 0 && not (slice_equal seq t.first.(!s) i k) do
    s := (!s + 1) land mask
  done;
  !s

let grow t seq k =
  let old_first = t.first and old_counts = t.counts in
  t.first <- Array.make (2 * Array.length old_first) (-1);
  t.counts <- Array.make (2 * Array.length old_first) 0;
  Array.iteri
    (fun s p ->
      if p >= 0 then begin
        let s' = probe t seq k p in
        t.first.(s') <- p;
        t.counts.(s') <- old_counts.(s)
      end)
    old_first

let count_grams seq k =
  let t = { first = Array.make 1024 (-1); counts = Array.make 1024 0; size = 0 } in
  for i = 0 to Array.length seq - k do
    if all_distinct seq i k then begin
      let s = probe t seq k i in
      if t.first.(s) >= 0 then t.counts.(s) <- t.counts.(s) + 1
      else begin
        t.first.(s) <- i;
        t.counts.(s) <- 1;
        t.size <- t.size + 1;
        if 2 * t.size > Array.length t.first then grow t seq k
      end
    end
  done;
  t

(* Frequent grams are merged into [tbl] in the order the original miner's
   [Hashtbl.iter] visited them, because the first permutation of an
   object set to arrive fixes the candidate's [order].  That miner kept
   every k in one [Hashtbl.create 4096] keyed by the gram as an
   [int list]: it iterated buckets [Hashtbl.hash gram land (b - 1)] in
   ascending order, each bucket newest-first (insertion is at the head
   and resizing keeps relative order), where [b] starts at 4096 and
   doubles while the distinct-gram count exceeds [2 b]. *)
let mine_ngrams cfg seq tbl =
  let tables = List.init (max 0 (cfg.ngram_max - 1)) (fun j -> (j + 2, count_grams seq (j + 2))) in
  let fold_grams f acc =
    List.fold_left
      (fun acc (k, t) ->
        let acc = ref acc in
        Array.iteri (fun s p -> if p >= 0 then acc := f !acc k p t.counts.(s)) t.first;
        !acc)
      acc tables
  in
  (* The floor adapts to the strongest candidate: a stream consulted
     thousands of times (analyzer's index trio) makes coincidental
     neighbours look frequent in absolute terms, while a genuinely
     recurring chain in a short profile may only repeat a handful of
     times. *)
  let top = fold_grams (fun acc _ _ hits -> max acc hits) 0 in
  let floor = max (max cfg.min_occurrences cfg.ngram_min_hits) (top / 50) in
  let distinct = List.fold_left (fun acc (_, t) -> acc + t.size) 0 tables in
  let buckets = ref 4096 in
  while distinct > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  fold_grams
    (fun acc k p hits ->
      if hits < floor then acc
      else begin
        let gram = List.init k (fun j -> seq.(p + j)) in
        (Hashtbl.hash gram land (!buckets - 1), k, p, gram, hits) :: acc
      end)
    []
  |> List.sort (fun (b1, k1, p1, _, _) (b2, k2, p2, _, _) ->
         match compare b1 b2 with
         | 0 -> ( match compare k2 k1 with 0 -> compare p2 p1 | c -> c)
         | c -> c)
  |> List.iter (fun (_, _, _, gram, hits) ->
         let key = List.sort compare gram in
         match Hashtbl.find_opt tbl key with
         | Some existing -> existing.hits <- existing.hits + hits
         | None -> Hashtbl.replace tbl key { order = gram; hits })

let mine_sequitur cfg seq tbl =
  let g = Sequitur.build seq in
  List.iter
    (fun (expansion, usage) ->
      if usage >= cfg.min_occurrences then begin
        let objs = cap_run cfg (Array.to_list expansion) in
        (* Register once per usage so occurrence thresholds mean the same
           thing for both miners. *)
        for _ = 1 to usage do
          add_candidate tbl objs
        done
      end)
    (Sequitur.rules g)

(* Mining operates on the pruned hot-access sequence only; the trace
   source (boxed or streamed) matters solely to [hot_sequence*]. *)
let detect_seq ~config ~method_ stats seq =
  let tbl : (int list, candidate) Hashtbl.t = Hashtbl.create 256 in
  (match method_ with
  | Lcs ->
    mine_lcs config seq tbl;
    mine_ngrams config seq tbl
  | Sequitur -> mine_sequitur config seq tbl);
  let weight_of objs =
    List.fold_left (fun acc o -> acc + (Trace_stats.obj_info stats o).accesses) 0 objs
  in
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  |> List.filter (fun c -> c.hits >= config.min_occurrences)
  |> List.map (fun c -> Hds.make ~objs:c.order ~refs:(weight_of c.order * c.hits))
  |> List.sort Hds.compare_by_refs
  |> List.filteri (fun i _ -> i < config.max_streams)

let detect_with_stats ?(config = default_config) ?(method_ = Lcs) stats trace =
  detect_seq ~config ~method_ stats (hot_sequence stats trace)

let detect_stream ?(config = default_config) ?(method_ = Lcs) stats stream =
  detect_seq ~config ~method_ stats (hot_sequence_stream stats stream)

let detect ?config ?method_ trace =
  let stats = Trace_stats.analyze trace in
  detect_with_stats ?config ?method_ stats trace
