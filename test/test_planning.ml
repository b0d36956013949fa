(* Differential tests for profile analysis and planning.

   The original implementations live here as oracles: the statistics
   collector that rebuilt a record per event, counter sharing that
   re-merged and re-numbered whole groups over lists, the recycling
   analysis that scanned every object per call, and [plan_with_stats]
   as it planned before profiles were shared.  The library's versions
   must agree with them exactly: on the 13 benchmark profiles under
   every ablation configuration, and on random inputs. *)

module Trace = Prefix_trace.Trace
module Event = Prefix_trace.Event
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module Trace_stats = Prefix_trace.Trace_stats
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Counters = Prefix_core.Counters
module Recycle = Prefix_core.Recycle
module Context = Prefix_core.Context
module Layout = Prefix_core.Layout
module Offsets = Prefix_core.Offsets
module Lifetimes = Prefix_core.Lifetimes
module Intervals = Prefix_core.Intervals
module Hds = Prefix_hds.Hds
module Workload = Prefix_workloads.Workload

(* ---- oracles ---- *)

(* The statistics collector as it was: an immutable record per object,
   rebuilt and re-stored on every Access, Free and Realloc. *)
module Old_stats = struct
  type obj_info = {
    obj : int;
    site : int;
    ctx : int;
    size : int;
    alloc_size : int;
    accesses : int;
    alloc_index : int;
    free_index : int option;
    instance : int;
  }

  type site_info = {
    site_id : int;
    alloc_count : int;
    site_objects : int list;
    site_accesses : int;
  }

  type t = {
    objs : (int, obj_info) Hashtbl.t; (* current (latest) incarnation per id *)
    all_objects : obj_info list; (* every incarnation, allocation order *)
    site_tbl : (int, site_info) Hashtbl.t;
    site_members : (int, obj_info list) Hashtbl.t; (* per-incarnation, alloc order *)
    total_accesses : int;
    max_live : int;
    reused : int;
    trace_len : int;
  }

  type collector = {
    c_objs : (int, obj_info) Hashtbl.t;
    mutable c_archived : obj_info list; (* superseded incarnations of reused ids *)
    c_site_counts : (int, int) Hashtbl.t;
    c_site_objs : (int, int list) Hashtbl.t; (* reversed allocation order *)
    mutable c_total_accesses : int;
    mutable c_live : int;
    mutable c_max_live : int;
    mutable c_reused : int;
    mutable c_len : int;
  }

  let collector () =
    { c_objs = Hashtbl.create 1024;
      c_archived = [];
      c_site_counts = Hashtbl.create 64;
      c_site_objs = Hashtbl.create 64;
      c_total_accesses = 0;
      c_live = 0;
      c_max_live = 0;
      c_reused = 0;
      c_len = 0 }

  let feed c ~base packed =
    let c_objs = c.c_objs in
    Packed.iteri
      ~alloc:(fun index ~obj ~site ~ctx ~size ~thread:_ ->
        let index = base + index in
        (* A reused id starts a new incarnation: the old info is archived
           (not overwritten, which double-counted the id in [objects])
           and, if the old incarnation was never freed, it stops being
           live here — an id names at most one live object. *)
        (match Hashtbl.find_opt c_objs obj with
        | None -> ()
        | Some old ->
          c.c_reused <- c.c_reused + 1;
          c.c_archived <- old :: c.c_archived;
          if old.free_index = None then c.c_live <- c.c_live - 1);
        let instance = 1 + Option.value ~default:0 (Hashtbl.find_opt c.c_site_counts site) in
        Hashtbl.replace c.c_site_counts site instance;
        Hashtbl.replace c.c_site_objs site
          (obj :: Option.value ~default:[] (Hashtbl.find_opt c.c_site_objs site));
        Hashtbl.replace c_objs obj
          { obj; site; ctx; size; alloc_size = size; accesses = 0; alloc_index = index;
            free_index = None; instance };
        c.c_live <- c.c_live + 1;
        if c.c_live > c.c_max_live then c.c_max_live <- c.c_live)
      ~access:(fun _ ~obj ~offset:_ ~write:_ ~thread:_ ->
        c.c_total_accesses <- c.c_total_accesses + 1;
        match Hashtbl.find_opt c_objs obj with
        | None -> ()
        | Some info -> Hashtbl.replace c_objs obj { info with accesses = info.accesses + 1 })
      ~free:(fun index ~obj ~thread:_ ->
        let index = base + index in
        match Hashtbl.find_opt c_objs obj with
        | None -> ()
        | Some info ->
          (* Only the first Free ends the lifetime; a duplicate free (which
             lenient replay tolerates) must not drive [live] negative. *)
          if info.free_index = None then begin
            Hashtbl.replace c_objs obj { info with free_index = Some index };
            c.c_live <- c.c_live - 1
          end)
      ~realloc:(fun _ ~obj ~new_size ~thread:_ ->
        match Hashtbl.find_opt c_objs obj with
        | None -> ()
        | Some info -> Hashtbl.replace c_objs obj { info with size = new_size })
      packed;
    c.c_len <- c.c_len + Packed.length packed

  let finish c =
    let current = Hashtbl.fold (fun _ info acc -> info :: acc) c.c_objs [] in
    let all_objects =
      List.sort (fun a b -> compare a.alloc_index b.alloc_index) (c.c_archived @ current)
    in
    let site_members = Hashtbl.create 64 in
    List.iter
      (fun info ->
        Hashtbl.replace site_members info.site
          (info :: Option.value ~default:[] (Hashtbl.find_opt site_members info.site)))
      (List.rev all_objects);
    let site_tbl = Hashtbl.create 64 in
    Hashtbl.iter
      (fun site_id alloc_count ->
        let site_objects =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt c.c_site_objs site_id))
        in
        let site_accesses =
          List.fold_left
            (fun acc (info : obj_info) -> acc + info.accesses)
            0
            (Option.value ~default:[] (Hashtbl.find_opt site_members site_id))
        in
        Hashtbl.replace site_tbl site_id { site_id; alloc_count; site_objects; site_accesses })
      c.c_site_counts;
    { objs = c.c_objs;
      all_objects;
      site_tbl;
      site_members;
      total_accesses = c.c_total_accesses;
      max_live = c.c_max_live;
      reused = c.c_reused;
      trace_len = c.c_len }

  let events_fed c = c.c_len

  let analyze_packed packed =
    let c = collector () in
    feed c ~base:0 packed;
    finish c

  let analyze trace = analyze_packed (Packed.of_trace trace)

  let analyze_stream stream =
    let c = collector () in
    Stream.iter_segments stream (fun ~base seg -> feed c ~base seg);
    finish c

  let objects t = t.all_objects

  let obj_info t obj =
    match Hashtbl.find_opt t.objs obj with
    | Some info -> info
    | None -> raise Not_found

  let sites t =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.site_tbl []
    |> List.sort (fun a b -> compare a.site_id b.site_id)

  let site_info t site =
    match Hashtbl.find_opt t.site_tbl site with
    | Some s -> s
    | None -> raise Not_found

  let total_heap_accesses t = t.total_accesses

  let max_live_objects t = t.max_live

  let reused_ids t = t.reused

  let trace_length t = t.trace_len

  let max_live_objects_of_site t site =
    match Hashtbl.find_opt t.site_members site with
    | None -> 0
    | Some members ->
      (* Sweep the per-incarnation intervals of this site. *)
      let events =
        List.concat_map
          (fun (info : obj_info) ->
            let fin = Option.value ~default:t.trace_len info.free_index in
            [ (info.alloc_index, 1); (fin, -1) ])
          members
        |> List.sort compare
      in
      let live = ref 0 and best = ref 0 in
      List.iter
        (fun (_, d) ->
          live := !live + d;
          if !live > !best then best := !live)
        events;
      !best

  let hot_objects ?(coverage = 0.9) ?(min_accesses = 4) t =
    let all =
      objects t
      |> List.filter (fun o -> o.accesses >= max 1 min_accesses)
      |> List.sort (fun a b -> compare b.accesses a.accesses)
    in
    let target = coverage *. float_of_int t.total_accesses in
    let rec take acc covered = function
      | [] -> List.rev acc
      | o :: rest ->
        if covered >= target then List.rev acc
        else take (o :: acc) (covered +. float_of_int o.accesses) rest
    in
    take [] 0. all

  let heap_access_share t objs =
    if t.total_accesses = 0 then 0.
    else
      let seen = Hashtbl.create (List.length objs) in
      let acc =
        List.fold_left
          (fun acc o ->
            if Hashtbl.mem seen o then acc
            else begin
              Hashtbl.replace seen o ();
              match Hashtbl.find_opt t.objs o with
              | None -> acc
              | Some info -> acc + info.accesses
            end)
          0 objs
      in
      float_of_int acc /. float_of_int t.total_accesses

  let lifetimes_overlap t a b =
    let ia = obj_info t a and ib = obj_info t b in
    let fin i = Option.value ~default:t.trace_len i.free_index in
    ia.alloc_index < fin ib && ib.alloc_index < fin ia
end

(* Counter sharing as it was: every candidate group re-merged, sorted,
   renumbered and inferred over lists. *)
module Old_counters = struct
  type alloc = { pos : int; obj : int; hot : bool }

  type site_allocs = { site : int; allocs : alloc list }

  type group = {
    counter : int;
    sites : int list;
    pattern : Context.pattern;
    hot_assignments : (int * int) list;
    total : int;
  }

  let simulate sites =
    let merged =
      List.concat_map (fun s -> s.allocs) sites |> List.sort (fun a b -> compare a.pos b.pos)
    in
    List.mapi (fun i a -> (i + 1, a.obj, a.hot)) merged

  (* A candidate grouping is viable if its hot ids still form a supported
     pattern under the shared numbering: All and Regular always qualify; a
     Fixed set qualifies when it is a single consecutive run (sites working
     "in tandem", like mcf's three graph allocations) or stays very small. *)
  let viable ~max_fixed sites =
    let numbered = simulate sites in
    let hot_ids = List.filter_map (fun (id, _, hot) -> if hot then Some id else None) numbered in
    match hot_ids with
    | [] -> None
    | first :: _ -> (
      let total = List.length numbered in
      let pattern = Context.infer ~hot_instances:hot_ids ~total_instances:total in
      match pattern with
      | Context.Fixed ids ->
        let n = List.length ids in
        let last = List.nth ids (n - 1) in
        let consecutive = last - first + 1 = n in
        if consecutive || n <= max_fixed then Some pattern else None
      | _ -> Some pattern)

  let build_group counter sites =
    let numbered = simulate sites in
    let hot_ids = List.filter_map (fun (id, _, hot) -> if hot then Some id else None) numbered in
    let total = List.length numbered in
    let pattern = Context.infer ~hot_instances:hot_ids ~total_instances:total in
    { counter;
      sites = List.map (fun s -> s.site) sites;
      pattern;
      hot_assignments =
        List.filter_map (fun (id, obj, hot) -> if hot then Some (id, obj) else None) numbered;
      total }

  let share ?(max_fixed = 3) ?(enable = true) sites =
    List.iter
      (fun s ->
        if not (List.exists (fun a -> a.hot) s.allocs) then
          invalid_arg
            (Printf.sprintf "Counters.share: site %d allocates no hot object" s.site))
      sites;
    let first_pos s = match s.allocs with [] -> max_int | a :: _ -> a.pos in
    let sites = List.sort (fun a b -> compare (first_pos a) (first_pos b)) sites in
    if not enable then List.mapi (fun i s -> build_group i [ s ]) sites
    else begin
      (* groups: list of site lists, in creation order. *)
      let groups : site_allocs list list ref = ref [] in
      List.iter
        (fun s ->
          let rec try_join acc = function
            | [] -> groups := !groups @ [ [ s ] ]
            | g :: rest -> (
              match viable ~max_fixed (g @ [ s ]) with
              | Some _ -> groups := List.rev_append acc ((g @ [ s ]) :: rest)
              | None -> try_join (g :: acc) rest)
          in
          try_join [] !groups)
        sites;
      List.mapi build_group !groups
    end

  let num_counters groups = List.length groups
end

(* The recycling analysis as it was: all objects scanned per call. *)
module Old_recycle = struct
  type decision = Recycle.decision = { n_slots : int; slot_bytes : int }

  type config = Recycle.config = {
    min_total_allocs : int;
    max_live_ratio : float;
    headroom : float;
    max_slot_bytes : int;
  }

  let default_config =
    { min_total_allocs = 64;
      max_live_ratio = 0.25;
      headroom = 1.25;
      max_slot_bytes = 1024 * 1024 }

  let max_live_combined stats sites =
    let site_set = Hashtbl.create (List.length sites) in
    List.iter (fun s -> Hashtbl.replace site_set s ()) sites;
    let events =
      Trace_stats.objects stats
      |> List.filter (fun (o : Trace_stats.obj_info) -> Hashtbl.mem site_set o.site)
      |> List.concat_map (fun (o : Trace_stats.obj_info) ->
             let fin = match o.free_index with Some i -> i | None -> max_int in
             [ (o.alloc_index, 1); (fin, -1) ])
      |> List.sort compare
    in
    let live = ref 0 and best = ref 0 in
    List.iter
      (fun (_, d) ->
        live := !live + d;
        if !live > !best then best := !live)
      events;
    !best

  let analyze ?(config = default_config) stats ~sites =
    let objs =
      Trace_stats.objects stats
      |> List.filter (fun (o : Trace_stats.obj_info) -> List.mem o.site sites)
    in
    let total = List.length objs in
    if total < config.min_total_allocs then None
    else begin
      let max_live = max_live_combined stats sites in
      let slot_bytes =
        List.fold_left (fun m (o : Trace_stats.obj_info) -> max m (max o.size o.alloc_size)) 0 objs
      in
      let ratio = float_of_int max_live /. float_of_int total in
      if ratio > config.max_live_ratio || slot_bytes > config.max_slot_bytes || max_live = 0 then
        None
      else
        let n_slots = int_of_float (ceil (float_of_int max_live *. config.headroom)) in
        Some { n_slots = max n_slots 1; slot_bytes }
    end
end

(* [Pipeline.plan_with_stats] as it was, over the oracles above. *)
module Old_pipeline = struct
  let stage _ f = f ()

  let dedup_keep_first objs =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun o ->
        if Hashtbl.mem seen o then false
        else begin
          Hashtbl.replace seen o ();
          true
        end)
      objs

  (* Sites whose profiled allocations are (almost) all hot are handled as
     "all ids" sites: every allocation is of interest, which is what makes
     both bulk placement (health) and recycling (swissmap, leela) work. *)
  let promoted_sites (cfg : Pipeline.config) stats hot_set =
    Trace_stats.sites stats
    |> List.filter_map (fun (s : Trace_stats.site_info) ->
           if s.alloc_count < cfg.promote_site_min_allocs then None
           else begin
             let hot = List.length (List.filter (fun o -> Hashtbl.mem hot_set o) s.site_objects) in
             if float_of_int hot >= cfg.promote_site_threshold *. float_of_int s.alloc_count
             then Some s.site_id
             else None
           end)

  let plan_with_stats ?(config = Pipeline.default_config) ?ohds ~variant stats trace =
    let cfg : Pipeline.config = config in
    let hot_infos, hot_set =
      stage "hot-selection" (fun () ->
          let hot_infos = Trace_stats.hot_objects ~coverage:cfg.coverage stats in
          let hot_set = Hashtbl.create (List.length hot_infos) in
          List.iter
            (fun (o : Trace_stats.obj_info) -> Hashtbl.replace hot_set o.obj ())
            hot_infos;
          (hot_infos, hot_set))
    in
    (* HDS detection (unless shared by the caller) + reconstitution. *)
    let ohds = match ohds with Some o -> o | None -> Pipeline.detect ~config:cfg stats trace in
    let layout = stage "reconstitution" (fun () -> Layout.reconstitute ohds) in
    let hds_objs = List.concat_map Hds.objs layout.rhds in
    let hds_set = Hashtbl.create 64 in
    List.iter (fun o -> Hashtbl.replace hds_set o ()) hds_objs;
    (* Placement order per variant. *)
    let alloc_order objs =
      List.sort
        (fun a b ->
          compare (Trace_stats.obj_info stats a).alloc_index
            (Trace_stats.obj_info stats b).alloc_index)
        objs
    in
    let hot_in_alloc_order = alloc_order (List.map (fun (o : Trace_stats.obj_info) -> o.obj) hot_infos) in
    let base_order =
      match (variant : Plan.variant) with
      | Hot -> hot_in_alloc_order
      | Hds -> hds_objs
      | HdsHot ->
        hds_objs @ alloc_order (List.filter (fun o -> not (Hashtbl.mem hds_set o)) hot_in_alloc_order)
    in
    (* Site promotion: append any not-yet-placed objects of promoted sites.
       The PreFix:HDS variant only places stream objects, so promoted sites
       join it solely when they are recyclable (recycling is orthogonal to
       the layout variants; without it the recycling benchmarks would lose
       their win in exactly one variant, which is not what §3.3 reports). *)
    let promoted = promoted_sites cfg stats hot_set in
    let promoted =
      match (variant : Plan.variant) with
      | Hot | HdsHot -> promoted
      | Hds ->
        (* A site qualifies if it recycles alone or as part of the whole
           promoted set (tandem sites only clear the minimum-allocation
           threshold together). *)
        let group_recycles =
          cfg.recycling
          && promoted <> []
          && Old_recycle.analyze ~config:cfg.recycle_config stats ~sites:promoted <> None
        in
        List.filter
          (fun site ->
            cfg.recycling
            && (group_recycles
               || Old_recycle.analyze ~config:cfg.recycle_config stats ~sites:[ site ] <> None))
          promoted
    in
    let promoted_objs =
      List.concat_map
        (fun site -> (Trace_stats.site_info stats site).site_objects)
        promoted
      |> alloc_order
    in
    let order = dedup_keep_first (base_order @ promoted_objs) in
    (* Enforce the prealloc cap before any further decisions. *)
    let size_of obj =
      let info = Trace_stats.obj_info stats obj in
      max info.size info.alloc_size
    in
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
    let placed_set = Hashtbl.create (List.length order) in
    List.iter (fun o -> Hashtbl.replace placed_set o ()) order;
    (* Instrumented sites and counter groups. *)
    let sites =
      Trace_stats.sites stats
      |> List.filter (fun (s : Trace_stats.site_info) ->
             List.exists (fun o -> Hashtbl.mem placed_set o) s.site_objects)
    in
    (* The hybrid mechanism (§2.2.2): a site whose hot objects all carry
       one call-stack signature — while its other allocations do not — can
       gate its counter on that signature.  Instance ids are then numbered
       within the signature's own subsequence, which stays stable even when
       the interleaving with the site's other paths is input-dependent. *)
    let hybrid_ctx_of_site (s : Trace_stats.site_info) =
      if not cfg.hybrid_context then None
      else begin
        let infos = List.map (Trace_stats.obj_info stats) s.site_objects in
        let hot_ctxs =
          List.filter_map
            (fun (i : Trace_stats.obj_info) ->
              if Hashtbl.mem placed_set i.obj then Some i.ctx else None)
            infos
          |> List.sort_uniq compare
        in
        let all_ctxs =
          List.map (fun (i : Trace_stats.obj_info) -> i.ctx) infos |> List.sort_uniq compare
        in
        match hot_ctxs with
        | [ c ] when List.length all_ctxs > 1 -> Some c
        | _ -> None
      end
    in
    let site_hybrid = List.map (fun s -> (s.Trace_stats.site_id, hybrid_ctx_of_site s)) sites in
    let site_allocs =
      List.map
        (fun (s : Trace_stats.site_info) ->
          let required = List.assoc s.site_id site_hybrid in
          let objects =
            match required with
            | None -> s.site_objects
            | Some c ->
              (* Only the gated signature's allocations advance the counter. *)
              List.filter
                (fun o -> (Trace_stats.obj_info stats o).ctx = c)
                s.site_objects
          in
          { Old_counters.site = s.site_id;
            allocs =
              List.map
                (fun o ->
                  let info = Trace_stats.obj_info stats o in
                  { Old_counters.pos = info.alloc_index; obj = o; hot = Hashtbl.mem placed_set o })
                objects })
        sites
    in
    (* Sites gated on different signatures must not share a counter: gate
       compatibility is part of sharing viability, enforced by pre-grouping. *)
    let hybrid_sites, plain_sites =
      List.partition
        (fun (sa : Old_counters.site_allocs) -> List.assoc sa.site site_hybrid <> None)
        site_allocs
    in
    let groups =
      let plain = Old_counters.share ~enable:cfg.counter_sharing plain_sites in
      let base = List.length plain in
      let hybrid =
        List.mapi
          (fun i sa ->
            match Old_counters.share ~enable:false [ sa ] with
            | [ g ] -> { g with Old_counters.counter = base + i }
            | _ -> assert false)
          hybrid_sites
      in
      plain @ hybrid
    in
    (* Recycling decisions: only for all-ids groups. *)
    let recycling_of_group (g : Old_counters.group) =
      if not cfg.recycling then None
      else
        match g.pattern with
        | Context.All _ -> Old_recycle.analyze ~config:cfg.recycle_config stats ~sites:g.sites
        | _ -> None
    in
    let group_recycle = List.map (fun g -> (g, recycling_of_group g)) groups in
    let recycled_objs = Hashtbl.create 64 in
    List.iter
      (fun ((g : Old_counters.group), r) ->
        if r <> None then
          List.iter
            (fun site ->
              List.iter
                (fun o -> Hashtbl.replace recycled_objs o ())
                (Trace_stats.site_info stats site).site_objects)
            g.sites)
      group_recycle;
    let direct_order = List.filter (fun o -> not (Hashtbl.mem recycled_objs o)) order in
    (* Future-work extension: segregate the region by lifetime class so
       one class's deaths free a contiguous span (several arenas in one). *)
    let direct_order =
      if cfg.lifetime_arenas then
        Lifetimes.regroup stats ~trace_len:(Trace.length trace) direct_order
      else direct_order
    in
    (* Liveness intervals back the interval-colored slot maps; extracted
       once (lazily) from the profiling trace only when a recycling group
       will consume them. *)
    let profile_intervals =
      lazy (stage "liveness-intervals" (fun () -> Intervals.of_trace trace))
    in
    let hybrid_ctx_of_group (g : Old_counters.group) =
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
              (fun ((g : Old_counters.group), r) ->
                match r with
                | None -> None
                | Some (d : Recycle.decision) ->
                  let off, first =
                    Offsets.extend !offsets ~count:d.n_slots ~size:d.slot_bytes
                  in
                  offsets := off;
                  let assignment =
                    match cfg.slot_mode with
                    | Pipeline.Modulo -> []
                    | Pipeline.Interval ->
                      Intervals.slot_assignment (Lazy.force profile_intervals)
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
        (fun (g : Old_counters.group) ->
          let required_ctx =
            match g.sites with
            | [ s ] -> Option.join (List.assoc_opt s site_hybrid)
            | _ -> None
          in
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
      List.concat_map (fun (g : Old_counters.group) -> List.map (fun s -> (s, g.counter)) g.sites) groups
    in
    (* Profile summary for Table 5. *)
    let captured =
      order @ Hashtbl.fold (fun o () acc -> o :: acc) recycled_objs []
      |> dedup_keep_first
    in
    let profile =
      { Plan.hot_count = List.length captured;
        hds_count = List.length (List.filter (fun o -> Hashtbl.mem hds_set o) captured);
        heap_access_share = Trace_stats.heap_access_share stats captured;
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

end

(* ---- the statistics collector ---- *)

let new_obj (o : Trace_stats.obj_info) =
  (o.obj, o.site, o.ctx, o.size, o.alloc_size, o.accesses, o.alloc_index, o.free_index, o.instance)

let old_obj (o : Old_stats.obj_info) =
  (o.obj, o.site, o.ctx, o.size, o.alloc_size, o.accesses, o.alloc_index, o.free_index, o.instance)

let hot_params = [ (0.9, 4); (0.95, 4); (1.0, 1); (0.5, 0) ]

let new_fingerprint s =
  let objs = Trace_stats.objects s in
  let ids = List.sort_uniq compare (List.map (fun (o : Trace_stats.obj_info) -> o.obj) objs) in
  ( List.map new_obj objs,
    List.map
      (fun (x : Trace_stats.site_info) ->
        ( (x.site_id, x.alloc_count, x.site_objects, x.site_accesses),
          Trace_stats.max_live_objects_of_site s x.site_id,
          Array.to_list (Array.map new_obj (Trace_stats.site_members s x.site_id)) ))
      (Trace_stats.sites s),
    List.map (fun id -> new_obj (Trace_stats.obj_info s id)) ids,
    List.map
      (fun (coverage, min_accesses) ->
        List.map new_obj (Trace_stats.hot_objects ~coverage ~min_accesses s))
      hot_params,
    Trace_stats.heap_access_share s (ids @ List.rev ids),
    ( Trace_stats.total_heap_accesses s,
      Trace_stats.max_live_objects s,
      Trace_stats.reused_ids s,
      Trace_stats.trace_length s ) )

let old_fingerprint (s : Old_stats.t) =
  let objs = Old_stats.objects s in
  let ids = List.sort_uniq compare (List.map (fun (o : Old_stats.obj_info) -> o.obj) objs) in
  ( List.map old_obj objs,
    List.map
      (fun (x : Old_stats.site_info) ->
        ( (x.site_id, x.alloc_count, x.site_objects, x.site_accesses),
          Old_stats.max_live_objects_of_site s x.site_id,
          List.map old_obj
            (Option.value ~default:[] (Hashtbl.find_opt s.site_members x.site_id)) ))
      (Old_stats.sites s),
    List.map (fun id -> old_obj (Old_stats.obj_info s id)) ids,
    List.map
      (fun (coverage, min_accesses) ->
        List.map old_obj (Old_stats.hot_objects ~coverage ~min_accesses s))
      hot_params,
    Old_stats.heap_access_share s (ids @ List.rev ids),
    ( Old_stats.total_heap_accesses s,
      Old_stats.max_live_objects s,
      Old_stats.reused_ids s,
      Old_stats.trace_length s ) )

(* Object ids mostly in a small reused range, some far outside it (and
   negative). *)
let soup_gen =
  QCheck.Gen.(
    let id st =
      match int_range 0 9 st with
      | 0 -> int_range (-5) (-1) st
      | 1 -> 1_000_000 + int_range 0 3 st
      | 2 -> int_range 1000 2500 st
      | _ -> int_range 0 40 st
    in
    let ev =
      frequency
        [ ( 3,
            fun st ->
              (Event.Alloc
                 { obj = id st; site = int_range 1 6 st; ctx = int_range 1 3 st;
                   size = int_range (-8) 128 st; thread = 0 }
                : Event.t) );
          ( 5,
            fun st ->
              Event.Access { obj = id st; offset = int_range 0 127 st; write = bool st; thread = 0 }
          );
          (2, fun st -> Event.Free { obj = id st; thread = 0 });
          (1, fun st -> Event.Realloc { obj = id st; new_size = int_range (-8) 256 st; thread = 0 });
          (1, fun st -> Event.Compute { instrs = int_range 1 50 st; thread = 0 }) ]
    in
    pair (list_size (int_range 0 600) ev) (int_range 1 64))

(* A streamed analysis that goes through a snapshot and a restore after
   every segment, as a resumed durable run does. *)
let analyze_resumed stream =
  let c = ref (Trace_stats.collector ()) in
  Stream.iter_segments stream (fun ~base seg ->
      Trace_stats.feed !c ~base seg;
      c := Trace_stats.restore (Trace_stats.snapshot !c));
  Trace_stats.finish !c

let prop_collector_soup =
  QCheck.Test.make ~name:"collector ≡ original collector on random traces" ~count:300
    (QCheck.make soup_gen)
    (fun (es, segment_events) ->
      let trace = Trace.of_list es in
      let expected = old_fingerprint (Old_stats.analyze trace) in
      new_fingerprint (Trace_stats.analyze trace) = expected
      && new_fingerprint (Trace_stats.analyze_stream (Stream.of_trace ~segment_events trace))
         = expected
      && new_fingerprint (analyze_resumed (Stream.of_trace ~segment_events trace)) = expected)

let profiles =
  lazy
    (List.map
       (fun name ->
         let wl = Prefix_workloads.Registry.find name in
         (name, wl.generate ~scale:Workload.Profiling ~seed:7 ()))
       Prefix_workloads.Registry.names)

let test_collector_profiles () =
  List.iter
    (fun (name, trace) ->
      Alcotest.(check bool)
        (name ^ ": same statistics") true
        (new_fingerprint (Trace_stats.analyze trace)
        = old_fingerprint (Old_stats.analyze trace)))
    (Lazy.force profiles)

(* ---- counter sharing ---- *)

(* Sites with structured positions (runs, strides, overlaps) and hot
   patterns that hit every [Context.infer] outcome, unsorted now and
   then. *)
let sites_gen =
  QCheck.Gen.(
    let site st =
      let n = int_range 1 30 st in
      let start = int_range 0 60 st and stride = int_range 1 4 st in
      let pattern = int_range 0 4 st and k = int_range 1 3 st in
      let allocs =
        List.init n (fun i ->
            let pos = if int_range 0 9 st = 0 then int_range 0 200 st else start + (i * stride) in
            let hot =
              match pattern with
              | 0 -> true
              | 1 -> i mod k = 0
              | 2 -> i < k
              | 3 -> int_range 0 3 st = 0
              | _ -> i mod (k + 1) = 1
            in
            (pos, int_range 0 500 st, hot))
      in
      if int_range 0 7 st = 0 then List.rev allocs else allocs
    in
    triple (list_size (int_range 1 8) site) (int_range 0 4) bool)

let print_sites (sites, max_fixed, enable) =
  Printf.sprintf "max_fixed=%d enable=%b %s" max_fixed enable
    (String.concat " | "
       (List.map
          (fun s ->
            String.concat ";"
              (List.map (fun (p, o, h) -> Printf.sprintf "%d:%d%s" p o (if h then "*" else "")) s))
          sites))

let prop_share =
  QCheck.Test.make ~name:"Counters.share ≡ original on random sites" ~count:1000
    (QCheck.make ~print:print_sites sites_gen)
    (fun (sites, max_fixed, enable) ->
      let catch f = try Ok (f ()) with Invalid_argument m -> Error m in
      let old_groups =
        catch (fun () ->
            Old_counters.share ~max_fixed ~enable
              (List.mapi
                 (fun i allocs ->
                   { Old_counters.site = i + 1;
                     allocs = List.map (fun (pos, obj, hot) -> { Old_counters.pos; obj; hot }) allocs })
                 sites)
            |> List.map (fun (g : Old_counters.group) ->
                   (g.counter, g.sites, g.pattern, g.hot_assignments, g.total)))
      in
      let new_sites =
        List.mapi
          (fun i allocs ->
            { Counters.site = i + 1;
              pos = Array.of_list (List.map (fun (p, _, _) -> p) allocs);
              obj = Array.of_list (List.map (fun (_, o, _) -> o) allocs);
              hot = Array.of_list (List.map (fun (_, _, h) -> h) allocs) })
          sites
      in
      let new_groups =
        catch (fun () ->
            Counters.share ~max_fixed ~enable new_sites
            |> List.map (fun (g : Counters.group) ->
                   (g.counter, g.sites, g.pattern, g.hot_assignments, g.total)))
      in
      let simulate_ok =
        match old_groups with
        | Error _ -> true
        | Ok _ ->
          Counters.simulate new_sites
          = Old_counters.simulate
              (List.mapi
                 (fun i allocs ->
                   { Old_counters.site = i + 1;
                     allocs = List.map (fun (pos, obj, hot) -> { Old_counters.pos; obj; hot }) allocs })
                 sites)
      in
      new_groups = old_groups && simulate_ok)

(* ---- recycling ---- *)

let recycle_gen =
  QCheck.Gen.(
    let config st =
      { Recycle.min_total_allocs = int_range 0 12 st;
        max_live_ratio = float_range 0.05 1.0 st;
        headroom = float_range 0.25 4.0 st;
        max_slot_bytes = int_range 16 256 st }
    in
    triple soup_gen (list_size (int_range 0 5) (int_range 0 7)) config)

let prop_recycle =
  QCheck.Test.make ~name:"Recycle.analyze ≡ original on random traces" ~count:500
    (QCheck.make recycle_gen)
    (fun ((es, _), sites, config) ->
      let stats = Trace_stats.analyze (Trace.of_list es) in
      Recycle.analyze ~config stats ~sites = Old_recycle.analyze ~config stats ~sites
      && Recycle.max_live_combined stats sites = Old_recycle.max_live_combined stats sites)

(* ---- whole plans ---- *)

(* The ablation configurations: sharing off, the recycling headroom
   sweep, the hybrid context, interval slots, lifetime arenas, a
   prealloc cap, and a coverage other than the profile's. *)
let configs =
  let d = Pipeline.default_config in
  [ ("default", d);
    ("sharing off", { d with counter_sharing = false }) ]
  @ List.map
      (fun headroom ->
        ( Printf.sprintf "headroom %g" headroom,
          { d with recycle_config = { d.recycle_config with headroom } } ))
      [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
  @ [ ("hybrid context", { d with hybrid_context = true });
      ("interval slots", { d with slot_mode = Pipeline.Interval });
      ("lifetime arenas", { d with lifetime_arenas = true });
      ("prealloc cap", { d with max_prealloc_bytes = Some 8192 });
      ("coverage 0.8", { d with coverage = 0.8 }) ]

let test_plans_equal () =
  List.iter
    (fun (name, trace) ->
      let stats = Trace_stats.analyze trace in
      let ohds = Pipeline.detect stats trace in
      let profile = Pipeline.profile_of_stats stats trace in
      List.iter
        (fun (label, config) ->
          List.iter
            (fun variant ->
              let expected = Old_pipeline.plan_with_stats ~config ~ohds ~variant stats trace in
              let what = Printf.sprintf "%s %s %s" name (Plan.variant_name variant) label in
              Alcotest.(check bool) what true
                (Pipeline.plan_of_profile ~config ~ohds ~variant profile = expected);
              if label = "default" then
                Alcotest.(check bool) (what ^ " (plan_with_stats)") true
                  (Pipeline.plan_with_stats ~config ~ohds ~variant stats trace = expected))
            [ Plan.Hot; Plan.Hds; Plan.HdsHot ])
        configs)
    (Lazy.force profiles)

let suite =
  [ ( "planning",
      [ Alcotest.test_case "collector ≡ original on the 13 profiles" `Quick
          test_collector_profiles;
        QCheck_alcotest.to_alcotest prop_collector_soup;
        QCheck_alcotest.to_alcotest prop_share;
        QCheck_alcotest.to_alcotest prop_recycle;
        Alcotest.test_case "plans ≡ original: 13 profiles × 3 variants × ablation configs"
          `Quick test_plans_equal ] ) ]
