module Trace_stats = Prefix_trace.Trace_stats

type decision = { n_slots : int; slot_bytes : int }

type config = {
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

(* Every incarnation allocated at one of [sites] (each site once). *)
let members stats sites =
  List.sort_uniq Int.compare sites |> List.map (Trace_stats.site_members stats) |> Array.concat

let peak members =
  let births = Array.map (fun (o : Trace_stats.obj_info) -> o.alloc_index) members in
  let deaths =
    Array.map
      (fun (o : Trace_stats.obj_info) -> match o.free_index with Some i -> i | None -> max_int)
      members
  in
  Array.stable_sort Int.compare births;
  Array.stable_sort Int.compare deaths;
  Trace_stats.peak_live ~births ~deaths

let max_live_combined stats sites = peak (members stats sites)

let analyze ?(config = default_config) stats ~sites =
  let objs = members stats sites in
  let allocs = Array.length objs in
  if allocs < config.min_total_allocs then None
  else begin
    let max_live = peak objs in
    let slot_bytes =
      Array.fold_left (fun m (o : Trace_stats.obj_info) -> max m (max o.size o.alloc_size)) 0 objs
    in
    let ratio = float_of_int max_live /. float_of_int allocs in
    if ratio > config.max_live_ratio || slot_bytes > config.max_slot_bytes || max_live = 0 then
      None
    else
      let n_slots = int_of_float (ceil (float_of_int max_live *. config.headroom)) in
      Some { n_slots = max n_slots 1; slot_bytes }
  end
