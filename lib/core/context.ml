type pattern =
  | All of { upto : int option }
  | Regular of { start : int; step : int; count : int }
  | Fixed of int list

let infer ~hot_instances ~total_instances =
  let ids = List.sort_uniq Int.compare hot_instances in
  (match ids with [] -> invalid_arg "Context.infer: no hot instances" | _ -> ());
  List.iter
    (fun i ->
      if i < 1 || i > total_instances then
        invalid_arg "Context.infer: instance id out of range")
    ids;
  let n = List.length ids in
  if n = total_instances then All { upto = Some total_instances }
  else
    match ids with
    | a :: b :: _ when n >= 3 ->
      let step = b - a in
      let arithmetic =
        step > 0
        && fst
             (List.fold_left
                (fun (ok, prev) x -> (ok && x - prev = step, x))
                (true, a - step) ids)
      in
      (* A contiguous run (step 1) is reported as a fixed set, matching the
         paper's Table 2 labelling (mcf's {1,2,3} is "fixed ids"); Regular
         is reserved for genuinely strided progressions such as the odd
         instances. *)
      if arithmetic && step >= 2 then Regular { start = a; step; count = n } else Fixed ids
    | _ -> Fixed ids

let matches p i =
  match p with
  | All { upto = None } -> i >= 1
  | All { upto = Some n } -> i >= 1 && i <= n
  | Regular { start; step; count } ->
    i >= start && (i - start) mod step = 0 && (i - start) / step < count
  | Fixed ids -> List.mem i ids

let cardinal = function
  | All { upto } -> upto
  | Regular { count; _ } -> Some count
  | Fixed ids -> Some (List.length ids)

let instances p limit =
  match p with
  | All { upto = Some n } -> List.init n (fun i -> i + 1)
  | All { upto = None } ->
    let n = Option.value ~default:0 limit in
    List.init n (fun i -> i + 1)
  | Regular { start; step; count } -> List.init count (fun i -> start + (i * step))
  | Fixed ids -> ids

(* Rough x86 instruction counts for the inlined id check of Figure 4. *)
let check_cost_instrs = function
  | All _ -> 0 (* no check, the id is used for placement only *)
  | Regular _ -> 6 (* sub, mod/and, cmp, branch *)
  | Fixed ids -> 2 + min (List.length ids) 8 (* short cmp chain or table probe *)

let kind_name = function All _ -> "all" | Regular _ -> "regular" | Fixed _ -> "fixed"

let pp ppf = function
  | All { upto = None } -> Format.fprintf ppf "all"
  | All { upto = Some n } -> Format.fprintf ppf "all(1..%d)" n
  | Regular { start; step; count } ->
    Format.fprintf ppf "regular(start=%d,step=%d,count=%d)" start step count
  | Fixed ids ->
    Format.fprintf ppf "fixed{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      ids
