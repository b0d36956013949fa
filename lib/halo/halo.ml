module Trace = Prefix_trace.Trace
module Trace_stats = Prefix_trace.Trace_stats
module Event = Prefix_trace.Event

type plan = { groups : int list list; hot_ctxs : int list }

type config = {
  hot_ctx_coverage : float;
  affinity_window : int;
  min_affinity : float;
}

let default_config = { hot_ctx_coverage = 0.9; affinity_window = 64; min_affinity = 0.1 }

(* Contexts that allocate at least one hot object. *)
let hot_contexts config stats =
  let hot = Trace_stats.hot_objects ~coverage:config.hot_ctx_coverage stats in
  let ctxs = Hashtbl.create 64 in
  List.iter
    (fun (o : Trace_stats.obj_info) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt ctxs o.ctx) in
      Hashtbl.replace ctxs o.ctx (cur + o.accesses))
    hot;
  Hashtbl.fold (fun ctx w acc -> (ctx, w) :: acc) ctxs []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map fst

(* Affinity: sliding window over the heap-access stream; every pair of hot
   contexts co-occurring within the window gets a tick.  Normalised by the
   smaller context's access count.

   Hot contexts are indexed densely, so the window is an int ring buffer
   and the ticks an H x H int matrix (upper triangle): beyond one table
   lookup (object -> context index), an access costs array updates
   only. *)
let affinity_matrix config stats trace hot_ctxs =
  let ctxs = Array.of_list hot_ctxs in
  let h = Array.length ctxs in
  let index_of_ctx = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.replace index_of_ctx c i) ctxs;
  let index_of_obj = Hashtbl.create 1024 in
  List.iter
    (fun (o : Trace_stats.obj_info) ->
      match Hashtbl.find_opt index_of_ctx o.ctx with
      | Some i -> Hashtbl.replace index_of_obj o.obj i
      | None -> ())
    (Trace_stats.objects stats);
  let ticks = Array.make (h * h) 0 in
  let accesses = Array.make h 0 in
  let cap = max 0 config.affinity_window in
  let ring = Array.make cap 0 in
  let len = ref 0 and oldest = ref 0 in
  Trace.iter
    (fun e ->
      match (e : Event.t) with
      | Access { obj; _ } -> (
        match Hashtbl.find_opt index_of_obj obj with
        | None -> ()
        | Some c ->
          accesses.(c) <- accesses.(c) + 1;
          for j = 0 to !len - 1 do
            let slot = !oldest + j in
            let other = ring.(if slot >= cap then slot - cap else slot) in
            if other <> c then begin
              let cell = if c < other then (c * h) + other else (other * h) + c in
              ticks.(cell) <- ticks.(cell) + 1
            end
          done;
          (* [oldest] stays 0 until the ring first fills. *)
          if !len < cap then begin
            ring.(!len) <- c;
            incr len
          end
          else if cap > 0 then begin
            ring.(!oldest) <- c;
            oldest := (!oldest + 1) mod cap
          end)
      | _ -> ())
    trace;
  let pairs = ref [] in
  for i = 0 to h - 1 do
    for j = i + 1 to h - 1 do
      (* A tick implies both contexts were accessed: the denominator is
         positive. *)
      let t = ticks.((i * h) + j) in
      if t > 0 then begin
        let a = ctxs.(i) and b = ctxs.(j) in
        let denom = min accesses.(i) accesses.(j) in
        pairs := ((min a b, max a b), float_of_int t /. float_of_int denom) :: !pairs
      end
    done
  done;
  List.sort (fun (k1, x) (k2, y) -> match compare y x with 0 -> compare k1 k2 | c -> c) !pairs

(* Greedy union-find grouping over pairs above the affinity threshold. *)
let group config pairs hot_ctxs =
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

let plan_of_trace ?(config = default_config) stats trace =
  let hot_ctxs = hot_contexts config stats in
  let pairs = affinity_matrix config stats trace hot_ctxs in
  let groups = group config pairs hot_ctxs in
  { groups; hot_ctxs }

let ctx_in_plan plan ctx =
  let rec go i = function
    | [] -> None
    | g :: rest -> if List.mem ctx g then Some i else go (i + 1) rest
  in
  go 0 plan.groups
