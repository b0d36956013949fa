module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Span = Prefix_obs.Span
module Log = (val Logs.src_log Prefix_obs.Log.pipeline)

(* Every planning stage runs under a span so `prefix stats` / --obs-out
   can show where pipeline time goes. *)
let stage name f = Span.with_ ~cat:"pipeline" name f

module Itbl = Hashtbl.Make (Int)

type slot_mode = Modulo | Interval

let slot_mode_name = function Modulo -> "modulo" | Interval -> "interval"

type config = {
  coverage : float;
  detector : Detector.config;
  method_ : Detector.method_;
  counter_sharing : bool;
  recycling : bool;
  recycle_config : Recycle.config;
  slot_mode : slot_mode;
  max_prealloc_bytes : int option;
  promote_site_threshold : float;
  promote_site_min_allocs : int;
  hybrid_context : bool;
  lifetime_arenas : bool;
}

let default_config =
  { coverage = 0.95;
    detector = Detector.default_config;
    method_ = Detector.Lcs;
    counter_sharing = true;
    recycling = true;
    recycle_config = Recycle.default_config;
    slot_mode = Modulo;
    max_prealloc_bytes = None;
    promote_site_threshold = 0.8;
    promote_site_min_allocs = 8;
    hybrid_context = false;
    lifetime_arenas = false }

let dedup_keep_first objs =
  let seen = Itbl.create (List.length objs) in
  List.filter
    (fun o ->
      if Itbl.mem seen o then false
      else begin
        Itbl.replace seen o ();
        true
      end)
    objs

(* ---- the variant-independent half of planning ------------------------

   Everything below depends on the profile (and the coverage target) but
   not on the variant or on any other knob, so it is computed once per
   profiling trace and shared by the three variants, the stability
   seeds, fig10 and the ablations. *)

(* One site's incarnations, in allocation order, keyed by what the
   planner reads: each id's latest incarnation's allocation position
   (the placement sort key and counter-simulation position) and call
   stack signature. *)
type site_members = { site_id : int; objs : int array; keys : int array; ctxs : int array }

type hot = {
  hot_infos : Trace_stats.obj_info list;  (* descending accesses *)
  hot_set : unit Itbl.t;
  hot_order : int list;  (* hot ids in allocation order *)
  site_hot : int array;  (* per profile site: members in [hot_set] *)
}

type profile = {
  trace : Trace.t;
  stats : Trace_stats.t;
  coverage : float;
  hot : hot;
  sites : site_members array;  (* ascending site id *)
  by_site : site_members Itbl.t;
  intervals : Intervals.t Lazy.t;
  lock : Mutex.t;  (* guards [intervals] *)
}

(* Sort object ids by allocation position: one key lookup per id, then
   integer compares.  Stable, so a repeated id (reused ids share their
   latest incarnation's key) keeps its order. *)
let sort_by_key ~keys objs =
  let perm = Array.init (Array.length objs) Fun.id in
  Array.stable_sort (fun i j -> Int.compare keys.(i) keys.(j)) perm;
  Array.fold_right (fun i acc -> objs.(i) :: acc) perm []

let key_of stats obj = (Trace_stats.obj_info stats obj).alloc_index

let alloc_order stats objs =
  let objs = Array.of_list objs in
  sort_by_key ~keys:(Array.map (key_of stats) objs) objs

let select_hot stats sites ~coverage =
  stage "hot-selection" (fun () ->
      let hot_infos = Trace_stats.hot_objects ~coverage stats in
      let hot_set = Itbl.create (List.length hot_infos) in
      List.iter
        (fun (o : Trace_stats.obj_info) -> Itbl.replace hot_set o.obj ())
        hot_infos;
      let hot_order =
        alloc_order stats (List.map (fun (o : Trace_stats.obj_info) -> o.obj) hot_infos)
      in
      let site_hot =
        Array.map
          (fun s -> Array.fold_left (fun k o -> if Itbl.mem hot_set o then k + 1 else k) 0 s.objs)
          sites
      in
      { hot_infos; hot_set; hot_order; site_hot })

let site_members_of stats site_id =
  let objs = Array.map (fun (o : Trace_stats.obj_info) -> o.obj) (Trace_stats.site_members stats site_id) in
  let latest = Array.map (Trace_stats.obj_info stats) objs in
  { site_id;
    objs;
    keys = Array.map (fun (o : Trace_stats.obj_info) -> o.alloc_index) latest;
    ctxs = Array.map (fun (o : Trace_stats.obj_info) -> o.ctx) latest }

let make_profile ~(config : config) ~intervals stats trace =
  let sites =
    stage "site-members" (fun () ->
        Array.of_list (List.map (site_members_of stats) (Trace_stats.site_ids stats)))
  in
  let hot = select_hot stats sites ~coverage:config.coverage in
  let by_site = Itbl.create (Array.length sites) in
  Array.iter (fun s -> Itbl.replace by_site s.site_id s) sites;
  { trace;
    stats;
    coverage = config.coverage;
    hot;
    sites;
    by_site;
    intervals;
    lock = Mutex.create () }

let profile_of_stats ?(config = default_config) stats trace =
  make_profile ~config ~intervals:(lazy (Intervals.of_trace trace)) stats trace

let profile ?(config = default_config) trace =
  let packed, stats =
    stage "trace-analysis" (fun () ->
        let packed = Prefix_trace.Packed.of_trace trace in
        (packed, Trace_stats.analyze_packed packed))
  in
  make_profile ~config ~intervals:(lazy (Intervals.of_packed packed)) stats trace

let profile_stats p = p.stats
let profile_trace p = p.trace

(* Liveness intervals of the profiling trace, extracted on first use
   (the lock makes concurrent first uses from several domains safe). *)
let intervals p =
  Mutex.protect p.lock (fun () ->
      if Lazy.is_val p.intervals then Lazy.force p.intervals
      else stage "liveness-intervals" (fun () -> Lazy.force p.intervals))

let recycles (cfg : config) p sites = Recycle.analyze ~config:cfg.recycle_config p.stats ~sites

(* Sites whose profiled allocations are (almost) all hot are handled as
   "all ids" sites: every allocation is of interest, which is what makes
   both bulk placement (health) and recycling (swissmap, leela) work. *)
let promoted_sites (cfg : config) p hot =
  List.filteri
    (fun i s ->
      let n = Array.length s.objs in
      n >= cfg.promote_site_min_allocs
      && float_of_int hot.site_hot.(i) >= cfg.promote_site_threshold *. float_of_int n)
    (Array.to_list p.sites)

(* The OHDS depends only on (stats, trace, detector config, method), not
   on the variant: callers planning several variants detect once and
   pass the list to each [plan_of_profile ~ohds]. *)
let detect ?(config = default_config) stats trace =
  stage "hds-detection" (fun () ->
      Detector.detect_with_stats ~config:config.detector ~method_:config.method_ stats trace)

let plan_of_profile ?(config = default_config) ?ohds ~variant p =
  Span.with_ ~cat:"pipeline"
    ~args:[ ("variant", Plan.variant_name variant) ]
    "pipeline"
  @@ fun () ->
  let cfg : config = config in
  let stats = p.stats in
  let hot =
    if cfg.coverage = p.coverage then p.hot else select_hot stats p.sites ~coverage:cfg.coverage
  in
  (* HDS detection (unless shared by the caller) + reconstitution. *)
  let ohds = match ohds with Some o -> o | None -> detect ~config:cfg stats p.trace in
  let layout, hds_objs, hds_set =
    stage "reconstitution" @@ fun () ->
    let layout = Layout.reconstitute ohds in
    let hds_objs = List.concat_map Hds.objs layout.rhds in
    let hds_set = Itbl.create 64 in
    List.iter (fun o -> Itbl.replace hds_set o ()) hds_objs;
    (layout, hds_objs, hds_set)
  in
  Log.debug (fun m ->
      m "%s: %d hot objects, %d OHDS, %d RHDS" (Plan.variant_name variant)
        (List.length hot.hot_infos) (List.length ohds)
        (List.length layout.rhds));
  let size_of obj =
    let info = Trace_stats.obj_info stats obj in
    max info.size info.alloc_size
  in
  let order, placed_set =
    stage "placement-order" @@ fun () ->
    (* Placement order per variant; [hot_order] is already sorted by
       allocation position, and so is any filter of it. *)
    let base_order =
      match (variant : Plan.variant) with
      | Hot -> hot.hot_order
      | Hds -> hds_objs
      | HdsHot -> hds_objs @ List.filter (fun o -> not (Itbl.mem hds_set o)) hot.hot_order
    in
    (* Site promotion: append any not-yet-placed objects of promoted
       sites.  The PreFix:HDS variant only places stream objects, so
       promoted sites join it solely when they are recyclable (recycling
       is orthogonal to the layout variants; without it the recycling
       benchmarks would lose their win in exactly one variant, which is
       not what §3.3 reports). *)
    let promoted = promoted_sites cfg p hot in
    let promoted =
      match (variant : Plan.variant) with
      | Hot | HdsHot -> promoted
      | Hds ->
        (* A site qualifies if it recycles alone or as part of the whole
           promoted set (tandem sites only clear the minimum-allocation
           threshold together). *)
        let recycles sites = recycles cfg p sites <> None in
        let group_recycles =
          cfg.recycling && promoted <> [] && recycles (List.map (fun s -> s.site_id) promoted)
        in
        List.filter
          (fun s -> cfg.recycling && (group_recycles || recycles [ s.site_id ]))
          promoted
    in
    let promoted_objs =
      sort_by_key
        ~keys:(Array.concat (List.map (fun s -> s.keys) promoted))
        (Array.concat (List.map (fun s -> s.objs) promoted))
    in
    let order = dedup_keep_first (base_order @ promoted_objs) in
    (* Enforce the prealloc cap before any further decisions. *)
    let order =
      match cfg.max_prealloc_bytes with
      | None -> order
      | Some cap ->
        let total = ref 0 in
        List.filter
          (fun o ->
            let s = (size_of o + 15) / 16 * 16 in
            if !total + s <= cap then begin
              total := !total + s;
              true
            end
            else false)
          order
    in
    let placed_set = Itbl.create (List.length order) in
    List.iter (fun o -> Itbl.replace placed_set o ()) order;
    (order, placed_set)
  in
  let placed o = Itbl.mem placed_set o in
  (* Instrumented sites and counter groups. *)
  let site_hybrid, groups =
    stage "counter-sharing" @@ fun () ->
    let sites = List.filter (fun s -> Array.exists placed s.objs) (Array.to_list p.sites) in
    (* The hybrid mechanism (§2.2.2): a site whose hot objects all carry
       one call-stack signature — while its other allocations do not —
       can gate its counter on that signature.  Instance ids are then
       numbered within the signature's own subsequence, which stays
       stable even when the interleaving with the site's other paths is
       input-dependent. *)
    let hybrid_ctx_of_site s =
      if not cfg.hybrid_context then None
      else begin
        let hot_ctxs = ref [] in
        Array.iteri (fun i o -> if placed o then hot_ctxs := s.ctxs.(i) :: !hot_ctxs) s.objs;
        let all_ctxs = List.sort_uniq Int.compare (Array.to_list s.ctxs) in
        match List.sort_uniq Int.compare !hot_ctxs with
        | [ c ] when List.length all_ctxs > 1 -> Some c
        | _ -> None
      end
    in
    let site_hybrid = List.map (fun s -> (s.site_id, hybrid_ctx_of_site s)) sites in
    let site_allocs s =
      let keep =
        match List.assoc s.site_id site_hybrid with
        | None -> Fun.id
        | Some c ->
          (* Only the gated signature's allocations advance the counter. *)
          fun a -> Array.of_list (List.filteri (fun i _ -> s.ctxs.(i) = c) (Array.to_list a))
      in
      let objs = keep s.objs in
      { Counters.site = s.site_id; pos = keep s.keys; obj = objs; hot = Array.map placed objs }
    in
    (* Sites gated on different signatures must not share a counter:
       gate compatibility is part of sharing viability, enforced by
       pre-grouping. *)
    let hybrid_sites, plain_sites =
      List.partition (fun s -> List.assoc s.site_id site_hybrid <> None) sites
    in
    let plain = Counters.share ~enable:cfg.counter_sharing (List.map site_allocs plain_sites) in
    let base = List.length plain in
    let hybrid =
      List.mapi
        (fun i s ->
          match Counters.share ~enable:false [ site_allocs s ] with
          | [ g ] -> { g with Counters.counter = base + i }
          | _ -> assert false)
        hybrid_sites
    in
    (site_hybrid, plain @ hybrid)
  in
  (* Recycling decisions: only for all-ids groups. *)
  let group_recycle, recycled_objs, direct_order =
    stage "recycle-analysis" @@ fun () ->
    let recycling_of_group (g : Counters.group) =
      if not cfg.recycling then None
      else
        match g.pattern with
        | Context.All _ -> recycles cfg p g.sites
        | _ -> None
    in
    let group_recycle = List.map (fun g -> (g, recycling_of_group g)) groups in
    let recycled_objs = Itbl.create 64 in
    List.iter
      (fun ((g : Counters.group), r) ->
        if r <> None then
          List.iter
            (fun site ->
              Array.iter
                (fun o -> Itbl.replace recycled_objs o ())
                (Itbl.find p.by_site site).objs)
            g.sites)
      group_recycle;
    let direct_order = List.filter (fun o -> not (Itbl.mem recycled_objs o)) order in
    (* Future-work extension: segregate the region by lifetime class so
       one class's deaths free a contiguous span (several arenas in
       one). *)
    let direct_order =
      if cfg.lifetime_arenas then
        Lifetimes.regroup stats ~trace_len:(Trace.length p.trace) direct_order
      else direct_order
    in
    (group_recycle, recycled_objs, direct_order)
  in
  let hybrid_ctx_of_group (g : Counters.group) =
    match g.sites with
    | [ s ] -> Option.join (List.assoc_opt s site_hybrid)
    | _ -> None
  in
  (* Offsets: direct placements first, then one block per recycled group. *)
  let offsets, recycle_blocks =
    stage "offset-assignment" (fun () ->
        let offsets = ref (Offsets.assign ~size_of direct_order) in
        let recycle_blocks =
          List.filter_map
            (fun ((g : Counters.group), r) ->
              match r with
              | None -> None
              | Some (d : Recycle.decision) ->
                let off, first =
                  Offsets.extend !offsets ~count:d.n_slots ~size:d.slot_bytes
                in
                offsets := off;
                let assignment =
                  match cfg.slot_mode with
                  | Modulo -> []
                  | Interval ->
                    (* Liveness intervals back the interval-colored slot
                       maps; extracted once per profile, on first use. *)
                    Intervals.slot_assignment (intervals p)
                      ~sites:g.sites ?required_ctx:(hybrid_ctx_of_group g)
                      ~n_slots:d.n_slots ()
                in
                Some
                  ( g.counter,
                    { Plan.first_slot = first;
                      n_slots = d.n_slots;
                      slot_bytes = d.slot_bytes;
                      assignment } ))
            group_recycle
        in
        (!offsets, recycle_blocks))
  in
  stage "plan"
  @@ fun () ->
  (* Counter plans. *)
  let counters =
    List.map
      (fun (g : Counters.group) ->
        let required_ctx = hybrid_ctx_of_group g in
        match List.assoc_opt g.counter recycle_blocks with
        | Some block ->
          { Plan.counter = g.counter;
            counter_sites = g.sites;
            pattern = Context.All { upto = None };
            placements = [];
            recycle = Some block;
            required_ctx }
        | None ->
          let placements =
            List.filter_map
              (fun (id, obj) ->
                match Offsets.slot_of_obj offsets obj with
                | Some slot -> Some (id, slot)
                | None -> None)
              g.hot_assignments
          in
          { Plan.counter = g.counter;
            counter_sites = g.sites;
            pattern = g.pattern;
            placements;
            recycle = None;
            required_ctx })
      groups
  in
  let site_counter =
    List.concat_map (fun (g : Counters.group) -> List.map (fun s -> (s, g.counter)) g.sites) groups
  in
  (* Profile summary for Table 5, over the captured objects: the placed
     ones (distinct already) and the recycled ones not among them. *)
  let captured =
    order @ Itbl.fold (fun o () acc -> if placed o then acc else o :: acc) recycled_objs []
  in
  let count f = List.fold_left (fun n o -> n + f o) 0 captured in
  let total_accesses = Trace_stats.total_heap_accesses stats in
  let profile =
    { Plan.hot_count = List.length captured;
      hds_count = count (fun o -> if Itbl.mem hds_set o then 1 else 0);
      heap_access_share =
        (* [Trace_stats.heap_access_share] without its duplicate check. *)
        (if total_accesses = 0 then 0.
         else
           float_of_int (count (fun o -> (Trace_stats.obj_info stats o).accesses))
           /. float_of_int total_accesses);
      ohds_count = List.length ohds;
      rhds_count = List.length layout.rhds }
  in
  { Plan.variant;
    slots = Offsets.slots offsets;
    region_bytes = Offsets.region_bytes offsets;
    site_counter;
    counters;
    placed_objects = direct_order;
    profile }

let plan_with_stats ?config ?ohds ~variant stats trace =
  plan_of_profile ?config ?ohds ~variant (profile_of_stats ?config stats trace)

let analyze_packed packed =
  stage "trace-analysis" (fun () -> Trace_stats.analyze_packed packed)

let analyze_stream stream =
  stage "trace-analysis" (fun () -> Trace_stats.analyze_stream stream)

let plan ?config ~variant trace = plan_of_profile ?config ~variant (profile ?config trace)

let all_variants ?config trace =
  let p = profile ?config trace in
  let ohds = detect ?config p.stats trace in
  List.map
    (fun v -> (v, plan_of_profile ?config ~ohds ~variant:v p))
    [ Plan.Hot; Plan.Hds; Plan.HdsHot ]
