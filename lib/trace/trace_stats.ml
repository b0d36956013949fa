type obj_info = {
  obj : int;
  site : int;
  ctx : int;
  mutable size : int;
  alloc_size : int;
  mutable accesses : int;
  alloc_index : int;
  mutable free_index : int option;
  instance : int;
}

type site_info = {
  site_id : int;
  alloc_count : int;
  site_objects : int list;
  site_accesses : int;
}

(* Ids hash to themselves: the ids of a generated trace are small and
   dense, so they fill the buckets in order, and the collector's lookups
   skip the generic [Hashtbl.hash] (which cost a third of the analysis). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

(* A growable run of records: the first [n] slots of [items] are live. *)
type run = { mutable items : obj_info array; mutable n : int }

(* Fills unused array slots; never read. *)
let filler =
  { obj = 0; site = 0; ctx = 0; size = 0; alloc_size = 0; accesses = 0; alloc_index = 0;
    free_index = None; instance = 0 }

let run_create () = { items = [||]; n = 0 }

let run_push r info =
  if r.n = Array.length r.items then begin
    let items = Array.make (max 8 (2 * r.n)) filler in
    Array.blit r.items 0 items 0 r.n;
    r.items <- items
  end;
  r.items.(r.n) <- info;
  r.n <- r.n + 1

(* ---- online collector ------------------------------------------------

   The analysis is a single left-to-right fold, so it streams: [feed] a
   packed segment at a time (with the global index of its first event)
   and [finish] once.  [analyze]/[analyze_packed]/[analyze_stream] are
   all the same collector, which is what makes the streamed and
   materialized statistics exactly equal.

   Each incarnation is one record, allocated at its Alloc and updated in
   place afterwards; the id store and the allocation-order run point at
   the same record, and [finish] hands them over without copying. *)

type collector = {
  c_objs : obj_info Itbl.t; (* current (latest) incarnation per id *)
  c_all : run; (* every incarnation, allocation order *)
  c_site_counts : int Itbl.t; (* incarnations per site so far *)
  mutable c_total_accesses : int;
  mutable c_live : int;
  mutable c_max_live : int;
  mutable c_reused : int;
  mutable c_len : int;
}

(* Bumped whenever the snapshot's representation changes, so a
   snapshot written by another layout is recognised instead of being
   read back as this one.  Layout 1 was the untagged marshalled table
   of immutable records. *)
let collector_layout = "2"

let collector () =
  { c_objs = Itbl.create 1024;
    c_all = run_create ();
    c_site_counts = Itbl.create 64;
    c_total_accesses = 0;
    c_live = 0;
    c_max_live = 0;
    c_reused = 0;
    c_len = 0 }

let alloc c ~index ~obj ~site ~ctx ~size =
  (* A reused id starts a new incarnation: the old record stays in the
     allocation-order run (it is not overwritten, which double-counted
     the id in [objects]) and, if the old incarnation was never freed,
     it stops being live here — an id names at most one live object. *)
  (match Itbl.find_opt c.c_objs obj with
   | Some old ->
     c.c_reused <- c.c_reused + 1;
     if old.free_index = None then c.c_live <- c.c_live - 1
   | None -> ());
  let instance = 1 + Option.value ~default:0 (Itbl.find_opt c.c_site_counts site) in
  Itbl.replace c.c_site_counts site instance;
  let info =
    { obj; site; ctx; size; alloc_size = size; accesses = 0; alloc_index = index;
      free_index = None; instance }
  in
  run_push c.c_all info;
  Itbl.replace c.c_objs obj info;
  c.c_live <- c.c_live + 1;
  if c.c_live > c.c_max_live then c.c_max_live <- c.c_live

let feed c ~base (p : Packed.t) =
  let objs = c.c_objs in
  let tag = p.tag and obj = p.obj and fa = p.fa and fb = p.fb and fc = p.fc in
  let accesses = ref 0 in
  for i = 0 to p.len - 1 do
    let t = tag.(i) in
    if t = Packed.tag_access then begin
      incr accesses;
      match Itbl.find objs obj.(i) with
      | info -> info.accesses <- info.accesses + 1
      | exception Not_found -> ()
    end
    else if t = Packed.tag_alloc then
      alloc c ~index:(base + i) ~obj:obj.(i) ~site:fa.(i) ~ctx:fc.(i) ~size:fb.(i)
    else if t = Packed.tag_free then begin
      match Itbl.find objs obj.(i) with
      (* Only the first Free ends the lifetime; a duplicate free (which
         lenient replay tolerates) must not drive [live] negative. *)
      | info ->
        if info.free_index = None then begin
          info.free_index <- Some (base + i);
          c.c_live <- c.c_live - 1
        end
      | exception Not_found -> ()
    end
    else if t = Packed.tag_realloc then begin
      match Itbl.find objs obj.(i) with
      | info -> info.size <- fa.(i)
      | exception Not_found -> ()
    end
  done;
  c.c_total_accesses <- c.c_total_accesses + !accesses;
  c.c_len <- c.c_len + p.len

type t = {
  objs : obj_info Itbl.t;
  all : run;
  site_runs : run Itbl.t;
  site_ids : int array; (* ascending *)
  total_accesses : int;
  max_live : int;
  reused : int;
  trace_len : int;
}

(* The per-site runs are cut from the allocation-order run once, at the
   end, so the collector (and its snapshots) hold each record's
   position only once. *)
let finish c =
  let site_runs = Itbl.create (Itbl.length c.c_site_counts) in
  Itbl.iter
    (fun site n -> Itbl.replace site_runs site { items = Array.make n filler; n = 0 })
    c.c_site_counts;
  for i = 0 to c.c_all.n - 1 do
    let info = c.c_all.items.(i) in
    run_push (Itbl.find site_runs info.site) info
  done;
  let site_ids = Array.of_seq (Itbl.to_seq_keys site_runs) in
  Array.sort Int.compare site_ids;
  { objs = c.c_objs;
    all = c.c_all;
    site_runs;
    site_ids;
    total_accesses = c.c_total_accesses;
    max_live = c.c_max_live;
    reused = c.c_reused;
    trace_len = c.c_len }

let events_fed c = c.c_len

(* A snapshot stores each incarnation once, in allocation order, with
   the counters; the id table and the per-site counts are rebuilt from
   that run (the last incarnation of an id is its latest, and the last
   of a site carries the site's count). *)
type snapshot = {
  s_all : obj_info array;
  s_total_accesses : int;
  s_live : int;
  s_max_live : int;
  s_reused : int;
  s_len : int;
}

let snapshot c =
  Marshal.to_string
    { s_all = Array.sub c.c_all.items 0 c.c_all.n;
      s_total_accesses = c.c_total_accesses;
      s_live = c.c_live;
      s_max_live = c.c_max_live;
      s_reused = c.c_reused;
      s_len = c.c_len }
    []

let restore payload =
  let s : snapshot = Marshal.from_string payload 0 in
  let c =
    { (collector ()) with
      c_all = { items = s.s_all; n = Array.length s.s_all };
      c_total_accesses = s.s_total_accesses;
      c_live = s.s_live;
      c_max_live = s.s_max_live;
      c_reused = s.s_reused;
      c_len = s.s_len }
  in
  Array.iter
    (fun info ->
      Itbl.replace c.c_objs info.obj info;
      Itbl.replace c.c_site_counts info.site info.instance)
    s.s_all;
  c

let analyze_packed packed =
  let c = collector () in
  feed c ~base:0 packed;
  finish c

let analyze trace = analyze_packed (Packed.of_trace trace)

let analyze_stream stream =
  let c = collector () in
  Stream.iter_segments stream (fun ~base seg -> feed c ~base seg);
  finish c

let objects t = List.init t.all.n (fun i -> t.all.items.(i))

let obj_info t obj = Itbl.find t.objs obj

let site_members t site =
  match Itbl.find_opt t.site_runs site with
  | Some r -> Array.sub r.items 0 r.n
  | None -> [||]

let site_info_of_run site_id r =
  let objects = ref [] and accesses = ref 0 in
  for i = r.n - 1 downto 0 do
    let info = r.items.(i) in
    objects := info.obj :: !objects;
    accesses := !accesses + info.accesses
  done;
  { site_id; alloc_count = r.n; site_objects = !objects; site_accesses = !accesses }

let sites t =
  Array.fold_right
    (fun id acc -> site_info_of_run id (Itbl.find t.site_runs id) :: acc)
    t.site_ids []

let site_info t site =
  match Itbl.find_opt t.site_runs site with
  | Some r -> site_info_of_run site r
  | None -> raise Not_found

let site_ids t = Array.to_list t.site_ids

let total_heap_accesses t = t.total_accesses

let max_live_objects t = t.max_live

let reused_ids t = t.reused

let trace_length t = t.trace_len

(* Peak of an interval sweep: [births] and [deaths] ascending.  A birth
   and a death never share a trace position (they are different
   events), so the order of equal keys cannot change the peak. *)
let peak_live ~births ~deaths =
  let nb = Array.length births and nd = Array.length deaths in
  let live = ref 0 and best = ref 0 and j = ref 0 in
  for i = 0 to nb - 1 do
    let b = births.(i) in
    while !j < nd && deaths.(!j) <= b do
      decr live;
      incr j
    done;
    incr live;
    if !live > !best then best := !live
  done;
  !best

let max_live_objects_of_site t site =
  match Itbl.find_opt t.site_runs site with
  | None -> 0
  | Some r ->
    (* Sweep the per-incarnation intervals of this site; the run is in
       allocation order, so only the deaths need sorting. *)
    let births = Array.init r.n (fun i -> r.items.(i).alloc_index) in
    let deaths =
      Array.init r.n (fun i -> Option.value ~default:t.trace_len r.items.(i).free_index)
    in
    Array.sort Int.compare deaths;
    peak_live ~births ~deaths

let hot_objects ?(coverage = 0.9) ?(min_accesses = 4) t =
  let min_accesses = max 1 min_accesses in
  let candidates = ref [] in
  for i = t.all.n - 1 downto 0 do
    let o = t.all.items.(i) in
    if o.accesses >= min_accesses then candidates := o :: !candidates
  done;
  (* Stable, so equally-accessed objects stay in allocation order. *)
  let ranked = Array.of_list !candidates in
  Array.stable_sort (fun a b -> Int.compare b.accesses a.accesses) ranked;
  let target = coverage *. float_of_int t.total_accesses in
  let rec take acc covered i =
    if i = Array.length ranked || covered >= target then List.rev acc
    else
      let o = ranked.(i) in
      take (o :: acc) (covered +. float_of_int o.accesses) (i + 1)
  in
  take [] 0. 0

let heap_access_share t objs =
  if t.total_accesses = 0 then 0.
  else
    let seen = Itbl.create (List.length objs) in
    let acc =
      List.fold_left
        (fun acc o ->
          if Itbl.mem seen o then acc
          else begin
            Itbl.replace seen o ();
            match Itbl.find_opt t.objs o with
            | Some info -> acc + info.accesses
            | None -> acc
          end)
        0 objs
    in
    float_of_int acc /. float_of_int t.total_accesses

let lifetimes_overlap t a b =
  let ia = obj_info t a and ib = obj_info t b in
  let fin i = Option.value ~default:t.trace_len i.free_index in
  ia.alloc_index < fin ib && ib.alloc_index < fin ia
