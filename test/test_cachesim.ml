(* Tests for Prefix_cachesim: Cache, Hierarchy, Cycles, Heatmap. *)

open Prefix_cachesim

let small_cache () = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 ()

let test_geometry () =
  let c = small_cache () in
  Alcotest.(check int) "sets" 8 (Cache.sets c);
  Alcotest.(check int) "assoc" 2 (Cache.assoc c);
  Alcotest.(check int) "line" 64 (Cache.line_bytes c)

let test_geometry_invalid () =
  Alcotest.check_raises "bad line" (Invalid_argument "Cache: line size must be a power of two")
    (fun () -> ignore (Cache.create ~size_bytes:960 ~assoc:2 ~line_bytes:48 ()))

let test_cold_miss_then_hit () =
  let c = small_cache () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line hit" true (Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Cache.access c 64);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Alcotest.(check int) "accesses" 4 (Cache.accesses c)

let test_lru_eviction () =
  let c = small_cache () in
  (* Three lines mapping to the same set (set stride = 8 lines * 64 B). *)
  let a = 0 and b = 8 * 64 and d = 16 * 64 in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  ignore (Cache.access c a); (* a is now MRU *)
  ignore (Cache.access c d); (* evicts b (LRU) *)
  Alcotest.(check bool) "a survives" true (Cache.access c a);
  Alcotest.(check bool) "b evicted" false (Cache.access c b)

let test_capacity () =
  let c = small_cache () in
  (* Touch exactly as many lines as the cache holds: all fit. *)
  for i = 0 to 15 do
    ignore (Cache.access c (i * 64))
  done;
  Cache.reset_counters c;
  for i = 0 to 15 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check int) "fully resident" 0 (Cache.misses c)

let test_writebacks () =
  let c = small_cache () in
  (* Fill one set (2 ways) with dirty lines, then force evictions. *)
  let a = 0 and b = 8 * 64 and d = 16 * 64 in
  ignore (Cache.access ~write:true c a);
  ignore (Cache.access ~write:true c b);
  Alcotest.(check int) "no writebacks yet" 0 (Cache.writebacks c);
  ignore (Cache.access c d);
  (* evicts dirty a *)
  Alcotest.(check int) "one writeback" 1 (Cache.writebacks c);
  (* clean eviction: d was a read-only fill *)
  ignore (Cache.access c a);
  (* evicts dirty b *)
  ignore (Cache.access c b);
  (* evicts clean d -> still 2 *)
  Alcotest.(check int) "dirty only" 2 (Cache.writebacks c)

let test_flush () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  Cache.flush c;
  Alcotest.(check int) "counters cleared" 0 (Cache.accesses c);
  Alcotest.(check bool) "contents cleared" false (Cache.access c 0)

let test_tlb_constructor () =
  let t = Cache.create_entries ~entries:16 ~assoc:4 ~page_bytes:4096 () in
  Alcotest.(check int) "sets" 4 (Cache.sets t);
  ignore (Cache.access t 0);
  Alcotest.(check bool) "same page hits" true (Cache.access t 4095);
  Alcotest.(check bool) "next page misses" false (Cache.access t 4096)

let test_hierarchy_counters () =
  let h = Hierarchy.create ~config:Hierarchy.scaled_config () in
  for i = 0 to 999 do
    Hierarchy.access h (i * 64)
  done;
  (* Second pass: 1000 lines = 62.5 KB exceeds the 8 KB L1 but fits LLC. *)
  for i = 0 to 999 do
    Hierarchy.access h (i * 64)
  done;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "refs" 2000 c.refs;
  Alcotest.(check bool) "L1 thrashes" true (c.l1_misses > 1500);
  Alcotest.(check int) "LLC holds everything" 1000 c.llc_misses;
  Alcotest.(check bool) "rates consistent" true
    (Hierarchy.llc_miss_rate h <= Hierarchy.l1_miss_rate h)

let test_paper_config_geometry () =
  (* 32 KB 8-way 64 B lines = 64 sets; 40 MB 20-way = 32768 sets. *)
  let c = Hierarchy.paper_config in
  Alcotest.(check int) "l1" (32 * 1024) c.l1_size;
  Alcotest.(check int) "llc assoc" 20 c.llc_assoc;
  ignore (Hierarchy.create ~config:c ())

let test_cycles_compute_only () =
  let est =
    Cycles.estimate ~instructions:4000
      { refs = 0; l1_misses = 0; llc_misses = 0; l1_tlb_misses = 0; l2_tlb_misses = 0; writebacks = 0 }
  in
  Alcotest.(check (float 1e-9)) "width-4 issue" 1000. est.total_cycles;
  Alcotest.(check (float 1e-9)) "no stalls" 0. est.backend_stall_pct

let test_cycles_memory_monotone () =
  let base =
    Cycles.estimate ~instructions:1000
      { refs = 100; l1_misses = 10; llc_misses = 0; l1_tlb_misses = 0; l2_tlb_misses = 0; writebacks = 0 }
  in
  let worse =
    Cycles.estimate ~instructions:1000
      { refs = 100; l1_misses = 10; llc_misses = 10; l1_tlb_misses = 0; l2_tlb_misses = 0; writebacks = 0 }
  in
  Alcotest.(check bool) "dram misses cost more" true
    (worse.total_cycles > base.total_cycles);
  Alcotest.(check bool) "stall pct grows" true
    (worse.backend_stall_pct > base.backend_stall_pct)

let test_time_seconds () =
  let est =
    Cycles.estimate ~instructions:12_000_000_000
      { refs = 0; l1_misses = 0; llc_misses = 0; l1_tlb_misses = 0; l2_tlb_misses = 0; writebacks = 0 }
  in
  Alcotest.(check (float 1e-6)) "3 GHz" 1.0 (Cycles.time_seconds est)

(* In-test reference model: true-LRU set-associative cache with the
   same counters, kept as the textbook stamp model — every touch stamps
   its way with a rising clock and a miss evicts the minimum stamp.
   The production cache keeps each set in recency order instead; the
   two must be behaviorally indistinguishable. *)
module Ref_cache = struct
  type t = {
    sets : int;
    assoc : int;
    line_bits : int;
    tags : int array;
    stamps : int array;
    dirty : bool array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
    mutable writebacks : int;
  }

  let create ~size_bytes ~assoc ~line_bytes =
    let sets = size_bytes / (assoc * line_bytes) in
    let rec log2 a n = if n <= 1 then a else log2 (a + 1) (n / 2) in
    { sets; assoc; line_bits = log2 0 line_bytes;
      tags = Array.make (sets * assoc) (-1);
      stamps = Array.make (sets * assoc) 0;
      dirty = Array.make (sets * assoc) false;
      clock = 0; accesses = 0; misses = 0; writebacks = 0 }

  let access t ~write addr =
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    let line = addr lsr t.line_bits in
    let set = line mod t.sets in
    let base = set * t.assoc in
    let hit = ref (-1) in
    let lru = ref 0 in
    for w = 0 to t.assoc - 1 do
      if t.tags.(base + w) = line then hit := w;
      if t.stamps.(base + w) < t.stamps.(base + !lru) then lru := w
    done;
    if !hit >= 0 then begin
      t.stamps.(base + !hit) <- t.clock;
      if write then t.dirty.(base + !hit) <- true;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let i = base + !lru in
      if t.tags.(i) >= 0 && t.dirty.(i) then t.writebacks <- t.writebacks + 1;
      t.tags.(i) <- line;
      t.stamps.(i) <- t.clock;
      t.dirty.(i) <- write;
      false
    end

  let reset_counters t =
    t.accesses <- 0;
    t.misses <- 0;
    t.writebacks <- 0

  let flush t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0;
    Array.fill t.dirty 0 (Array.length t.dirty) false;
    t.clock <- 0;
    reset_counters t
end

type cache_op = Probe of int * int * int * bool | Reset | Flush

let prop_mru_matches_reference =
  (* Geometries: every one replay builds (scaled and paper L1/LLC,
     both TLB levels), plus random direct-mapped to 8-way caches of
     1-64 sets.  Addresses concentrate on a few sets with a few more
     tags than ways, so sets fill, hit at every recency position and
     evict, with random writes and occasional [reset_counters] /
     [flush].  Every verdict and every counter must match the stamp
     model after every operation. *)
  let replay_geometries =
    (* (size_bytes, assoc, line_bytes) *)
    [ (8 * 1024, 8, 64); (32 * 1024, 8, 64);
      (1024 * 1024, 16, 64); (40 * 1024 * 1024, 20, 64);
      (16 * 4096, 4, 4096); (64 * 4096, 4, 4096);
      (96 * 4096, 6, 4096); (1536 * 4096, 6, 4096) ]
  in
  let gen =
    QCheck.Gen.(
      let* size_bytes, assoc, line_bytes =
        frequency
          [ (1, oneofl replay_geometries);
            ( 1,
              let* assoc = oneofl [ 1; 1; 2; 3; 4; 6; 8 ] in
              let* sets = map (fun k -> 1 lsl k) (int_range 0 6) in
              let* line_bytes = map (fun k -> 1 lsl k) (int_range 0 7) in
              return (sets * assoc * line_bytes, assoc, line_bytes) ) ]
      in
      let sets = size_bytes / (assoc * line_bytes) in
      let op =
        frequency
          [ ( 60,
              map3
                (fun set tag (offset, write) -> Probe (set, tag, offset, write))
                (int_range 0 (min sets 3 - 1))
                (int_range 0 (assoc + 2))
                (pair (int_range 0 (line_bytes - 1)) bool) );
            (1, return Reset);
            (1, return Flush) ]
      in
      let* ops = list_size (int_range 0 600) op in
      return ((size_bytes, assoc, line_bytes), ops))
  in
  let print ((size_bytes, assoc, line_bytes), ops) =
    Printf.sprintf "size=%d assoc=%d line=%d ops=%d" size_bytes assoc line_bytes
      (List.length ops)
  in
  QCheck.Test.make ~name:"MRU-first probe ≡ plain LRU scan" ~count:300
    (QCheck.make ~print gen)
    (fun ((size_bytes, assoc, line_bytes), ops) ->
      let c = Cache.create ~size_bytes ~assoc ~line_bytes () in
      let r = Ref_cache.create ~size_bytes ~assoc ~line_bytes in
      let sets = Cache.sets c in
      List.for_all
        (fun op ->
          let verdict =
            match op with
            | Probe (set, tag, offset, write) ->
              let addr = (((tag * sets) + set) * line_bytes) + offset in
              Cache.probe c ~write addr = Ref_cache.access r ~write addr
            | Reset ->
              Cache.reset_counters c;
              Ref_cache.reset_counters r;
              true
            | Flush ->
              Cache.flush c;
              Ref_cache.flush r;
              true
          in
          verdict
          && Cache.accesses c = r.Ref_cache.accesses
          && Cache.misses c = r.Ref_cache.misses
          && Cache.writebacks c = r.Ref_cache.writebacks)
        ops)

let test_mru_fast_path_counts () =
  (* A same-line streak exercises the MRU early exit; the counters must
     be exactly those of the seed implementation (1 cold miss, rest
     hits), and a conflicting line must still evict true-LRU. *)
  let c = small_cache () in
  for _ = 1 to 100 do
    ignore (Cache.probe c ~write:false 0)
  done;
  Alcotest.(check int) "one cold miss" 1 (Cache.misses c);
  Alcotest.(check int) "all counted" 100 (Cache.accesses c);
  let b = 8 * 64 and d = 16 * 64 in
  ignore (Cache.probe c ~write:false b); (* fills the empty way of set 0 *)
  ignore (Cache.probe c ~write:false d); (* evicts line 0, the set's LRU *)
  Alcotest.(check bool) "LRU (line 0) evicted" false (Cache.probe c ~write:false 0);
  Alcotest.(check bool) "MRU survivor hits" true (Cache.probe c ~write:false d)

let test_probe_equals_access () =
  (* [probe] and [access] are the same function under two signatures. *)
  let c1 = small_cache () and c2 = small_cache () in
  for i = 0 to 200 do
    let addr = i * 48 mod 1500 in
    let w = i mod 3 = 0 in
    Alcotest.(check bool) "same verdict"
      (Cache.access ~write:w c1 addr)
      (Cache.probe c2 ~write:w addr)
  done;
  Alcotest.(check int) "same misses" (Cache.misses c1) (Cache.misses c2);
  Alcotest.(check int) "same writebacks" (Cache.writebacks c1) (Cache.writebacks c2)

let test_heatmap () =
  let h = Heatmap.create ~time_buckets:10 ~addr_buckets:5 () in
  Alcotest.(check int) "empty footprint" 0 (Heatmap.footprint_bytes h);
  Heatmap.record h ~time:0 ~addr:1000;
  Heatmap.record h ~time:50 ~addr:9000;
  (* Inclusive span: addresses 1000..9000 cover 8001 bytes, not 8000. *)
  Alcotest.(check int) "footprint" 8001 (Heatmap.footprint_bytes h);
  Alcotest.(check int) "samples" 2 (Heatmap.samples h);
  let s = Heatmap.render h in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_heatmap_single_address () =
  (* Regression: a heatmap with samples at exactly one address used to
     report a footprint of 0 bytes (max - min). *)
  let h = Heatmap.create ~time_buckets:4 ~addr_buckets:4 () in
  Heatmap.record h ~time:0 ~addr:4096;
  Heatmap.record h ~time:9 ~addr:4096;
  Alcotest.(check int) "one byte footprint" 1 (Heatmap.footprint_bytes h)

let test_heatmap_thinning () =
  let h = Heatmap.create ~time_buckets:4 ~addr_buckets:4 () in
  for i = 0 to 500_000 do
    Heatmap.record h ~time:i ~addr:(i mod 1000);
    (* Regression: the thinning bookkeeping drifted from the real number
       of retained points, so the reservoir either over- or under-thinned. *)
    if i land 0xFFFF = 0 then
      Alcotest.(check int) "kept matches stored"
        (Heatmap.stored_points h) (Heatmap.kept_points h)
  done;
  Alcotest.(check int) "all samples counted" 500_001 (Heatmap.samples h);
  Alcotest.(check int) "kept matches stored at end"
    (Heatmap.stored_points h) (Heatmap.kept_points h);
  ignore (Heatmap.render h)

let suite =
  [ ( "cachesim",
      [ Alcotest.test_case "geometry" `Quick test_geometry;
        Alcotest.test_case "invalid geometry" `Quick test_geometry_invalid;
        Alcotest.test_case "miss then hit" `Quick test_cold_miss_then_hit;
        Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
        Alcotest.test_case "capacity" `Quick test_capacity;
        Alcotest.test_case "writebacks" `Quick test_writebacks;
        Alcotest.test_case "flush" `Quick test_flush;
        Alcotest.test_case "tlb constructor" `Quick test_tlb_constructor;
        Alcotest.test_case "hierarchy counters" `Quick test_hierarchy_counters;
        Alcotest.test_case "paper config" `Quick test_paper_config_geometry;
        Alcotest.test_case "cycles compute only" `Quick test_cycles_compute_only;
        Alcotest.test_case "cycles memory monotone" `Quick test_cycles_memory_monotone;
        Alcotest.test_case "time seconds" `Quick test_time_seconds;
        Alcotest.test_case "MRU fast path counts" `Quick test_mru_fast_path_counts;
        Alcotest.test_case "probe = access" `Quick test_probe_equals_access;
        QCheck_alcotest.to_alcotest prop_mru_matches_reference;
        Alcotest.test_case "heatmap" `Quick test_heatmap;
        Alcotest.test_case "heatmap single address" `Quick test_heatmap_single_address;
        Alcotest.test_case "heatmap thinning" `Quick test_heatmap_thinning ] ) ]
