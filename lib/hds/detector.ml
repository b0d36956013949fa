module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Event = Prefix_trace.Event
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module Span = Prefix_obs.Span

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

(* The pruned sequence grows in a flat int buffer (doubling), not a
   consed list reversed and copied at the end. *)
type pruned = { hot : (int, unit) Hashtbl.t; mutable items : int array; mutable len : int; mutable last : int }

let push b obj =
  if obj <> b.last && Hashtbl.mem b.hot obj then begin
    if b.len = Array.length b.items then begin
      let grown = Array.make (2 * b.len) 0 in
      Array.blit b.items 0 grown 0 b.len;
      b.items <- grown
    end;
    Array.unsafe_set b.items b.len obj;
    b.len <- b.len + 1;
    b.last <- obj
  end

let pruned stats fill =
  Span.with_ ~cat:"hds" "hot-sequence" @@ fun () ->
  let b = { hot = hot_table stats; items = Array.make 4096 0; len = 0; last = min_int } in
  fill b;
  Array.sub b.items 0 b.len

let hot_sequence stats trace =
  pruned stats (fun b ->
      Trace.iter (fun e -> match (e : Event.t) with Access { obj; _ } -> push b obj | _ -> ()) trace)

(* Streaming variant: the pruned sequence (hot accesses, adjacent
   duplicates collapsed) is far smaller than the trace, so mining stays
   in memory while the trace itself never is. *)
let hot_sequence_stream stats stream =
  pruned stats (fun b ->
      Stream.iter_segments stream (fun ~base:_ seg ->
          Packed.iteri ~access:(fun _ ~obj ~offset:_ ~write:_ ~thread:_ -> push b obj) seg))

(* Sampled autocorrelation: for each candidate lag, the fraction of
   sampled positions i with seq.(i) = seq.(i + lag).  Periodic traversal
   patterns light up at (multiples of) their period.  Scans stop early
   as soon as the outcome is known; the interface states the rule. *)
let dominant_periods ?(config = default_config) (seq : int array) =
  let n = Array.length seq in
  if n < 8 then []
  else
    Span.with_ ~cat:"hds" "periods" @@ fun () ->
    let max_lag = min config.max_lag (n / 2) in
    let samples = 192 in
    let strong lag =
      let span = n - lag in
      let stride = max 1 (span / samples) in
      let total = (span + stride - 1) / stride in
      let allowed = total - ((total + 1) / 2) in
      let misses = ref 0 and i = ref 0 in
      while !misses <= allowed && !i < span do
        if seq.(!i) <> seq.(!i + lag) then incr misses;
        i := !i + stride
      done;
      !misses <= allowed
    in
    (* Periods are exact in pruned-sequence position space and object
       ids rarely repeat within a period, so near-miss lags score zero:
       every lag must be probed.  Prefer the smallest strong lags
       (fundamental periods rather than their multiples), dropping
       near-multiples of already-chosen ones. *)
    let chosen = ref [] and count = ref 0 and lag = ref 1 in
    while !count < config.max_periods && !lag <= max_lag do
      let l = !lag in
      let is_multiple l0 = l mod l0 = 0 || (l mod l0 < l0 / 16) || (l0 - (l mod l0) < l0 / 16) in
      if (not (List.exists is_multiple !chosen)) && strong l then begin
        chosen := l :: !chosen;
        incr count
      end;
      incr lag
    done;
    List.rev !chosen

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
  Span.with_ ~cat:"hds" "lcs-mining" @@ fun () ->
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

   Counting names grams instead of hashing them; see [mine_ngrams] in
   the interface for the scheme.  Everything lives in a few flat arrays
   of the sequence's length; lists are built only for the grams that
   clear the floor. *)

(* Dense symbols 0 .. u-1 for [seq], numbered in order of first
   appearance.  Returns the symbols and u. *)
let dense_symbols seq =
  let ids = Hashtbl.create 1024 in
  let sym =
    Array.map
      (fun o ->
        match Hashtbl.find_opt ids o with
        | Some s -> s
        | None ->
          let s = Hashtbl.length ids in
          Hashtbl.add ids o s;
          s)
      seq
  in
  (sym, Hashtbl.length ids)

(* Frequent grams are merged into [tbl] in the order the original miner's
   [Hashtbl.iter] visited them, because the first permutation of an
   object set to arrive fixes the candidate's [order].  That miner kept
   every k in one [Hashtbl.create 4096] keyed by the gram as an
   [int list]: it iterated buckets [Hashtbl.hash gram land (b - 1)] in
   ascending order, each bucket newest-first (insertion is at the head
   and resizing keeps relative order), where [b] starts at 4096 and
   doubles while the distinct-gram count exceeds [2 b]. *)
let mine_ngrams cfg seq tbl =
  Span.with_ ~cat:"hds" "ngram-mining" @@ fun () ->
  let n = Array.length seq in
  let static_floor = max cfg.min_occurrences cfg.ngram_min_hits in
  (* Frequent grams as (k, first position, hits), and the floor: a
     k-gram occurs at most as often as its (k-1)-gram prefix, so the
     most frequent gram is a 2-gram and the floor is final after k = 2. *)
  let kept = ref [] and floor = ref static_floor and distinct = ref 0 in
  if n >= 2 && cfg.ngram_max >= 2 then begin
    (* An entry packs a gram's name above its position, [shift] bits
       each being enough for any position or name (both are below n). *)
    let shift = ref 1 in
    while 1 lsl !shift < n do
      incr shift
    done;
    let shift = !shift in
    if 2 * shift > Sys.int_size - 1 then invalid_arg "Detector.mine_ngrams: sequence too long";
    let mask = (1 lsl shift) - 1 in
    let sym, u = dense_symbols seq in
    let src = ref (Array.make n 0) and dst = ref (Array.make n 0) in
    (* At level k, [fresh.[i]] for [i <= n - k] is set iff the k-gram
       at [i] has distinct objects; every 1-gram does. *)
    let fresh = Bytes.make n '\001' in
    let cnt = Array.make (u + 1) 0 in
    (* Stable counting sort of [src.(0 .. m-1)] by the symbol at each
       entry's position into [dst], given per-symbol counts in
       [cnt.(s + 1)]; afterwards [cnt.(s)] is the end of [s]'s block. *)
    let scatter src dst m =
      for s = 1 to u do
        cnt.(s) <- cnt.(s) + cnt.(s - 1)
      done;
      for j = 0 to m - 1 do
        let e = src.(j) in
        let s = sym.(e land mask) in
        let c = cnt.(s) in
        dst.(c) <- e;
        cnt.(s) <- c + 1
      done
    in
    (* Level 1: every position, named by its symbol, grouped by name. *)
    for i = 0 to n - 1 do
      !src.(i) <- (sym.(i) lsl shift) lor i;
      cnt.(sym.(i) + 1) <- cnt.(sym.(i) + 1) + 1
    done;
    scatter !src !dst n;
    (* Invariant: [!dst.(0 .. len-1)] holds the current level's grams,
       grouped by name with names ascending and positions ascending
       within a name. *)
    let len = ref n and k = ref 2 in
    while !k <= cfg.ngram_max && !len > 0 do
      let k' = !k in
      let grams = !dst and next = !src in
      (* The k-gram at [i] has distinct objects iff both its (k-1)-grams
         do and its end objects differ. *)
      for i = 0 to n - k' do
        if Bytes.unsafe_get fresh i <> '\000'
           && (Bytes.unsafe_get fresh (i + 1) = '\000' || sym.(i) = sym.(i + k' - 1))
        then Bytes.unsafe_set fresh i '\000'
      done;
      (* The k-gram at [i] is named by (symbol at [i], name of the
         (k-1)-gram at [i + 1]): the entry before a (k-1)-gram's entry,
         [e - 1], carries that suffix name with position [i].  Walking
         [grams] visits suffix names ascending, so one stable sort by
         first symbol groups equal k-grams, positions ascending. *)
      Array.fill cnt 0 (u + 1) 0;
      let m = ref 0 in
      for j = 0 to !len - 1 do
        let e = grams.(j) in
        let i = (e land mask) - 1 in
        if i >= 0 && Bytes.unsafe_get fresh i <> '\000' then begin
          grams.(!m) <- e - 1;
          cnt.(sym.(i) + 1) <- cnt.(sym.(i) + 1) + 1;
          incr m
        end
      done;
      scatter grams next !m;
      (* Runs of one suffix name inside a symbol's block are the
         distinct k-grams; a run's index becomes the gram's name. *)
      let runs = ref 0 and j = ref 0 in
      for s = 0 to u - 1 do
        let stop = cnt.(s) in
        while !j < stop do
          let start = !j and suffix = next.(!j) lsr shift in
          let e = ref (start + 1) in
          while !e < stop && next.(!e) lsr shift = suffix do
            incr e
          done;
          let r = !runs lsl shift in
          for q = start to !e - 1 do
            next.(q) <- r lor (next.(q) land mask)
          done;
          let hits = !e - start in
          if k' = 2 && hits / 50 > !floor then floor := hits / 50;
          if hits >= !floor then kept := (k', next.(start) land mask, hits) :: !kept;
          incr runs;
          j := !e
        done
      done;
      distinct := !distinct + !runs;
      len := !m;
      src := grams;
      dst := next;
      incr k
    done
  end;
  (* The floor adapts to the strongest candidate: a stream consulted
     thousands of times (analyzer's index trio) makes coincidental
     neighbours look frequent in absolute terms, while a genuinely
     recurring chain in a short profile may only repeat a handful of
     times. *)
  let floor = !floor in
  let buckets = ref 4096 in
  while !distinct > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  List.filter_map
    (fun (k, p, hits) ->
      if hits < floor then None
      else begin
        let gram = List.init k (fun j -> seq.(p + j)) in
        Some (Hashtbl.hash gram land (!buckets - 1), k, p, gram, hits)
      end)
    !kept
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
