type site_allocs = { site : int; pos : int array; obj : int array; hot : bool array }

type group = {
  counter : int;
  sites : int list;
  pattern : Context.pattern;
  hot_assignments : (int * int) list;
  total : int;
}

(* The allocations under one counter, merged by trace position: index i
   is what the shared counter numbers i+1. *)
type merged = { m_pos : int array; m_obj : int array; m_hot : bool array }

let is_sorted a =
  let rec go i = i >= Array.length a || (a.(i - 1) <= a.(i) && go (i + 1)) in
  go 1

(* A site's allocations in position order; a stable sort keeps equal
   positions in the order given. *)
let merged_of_site s =
  let n = Array.length s.pos in
  if n <> Array.length s.obj || n <> Array.length s.hot then
    invalid_arg (Printf.sprintf "Counters: site %d has ragged allocation arrays" s.site);
  if is_sorted s.pos then { m_pos = s.pos; m_obj = s.obj; m_hot = s.hot }
  else begin
    let perm = Array.init n Fun.id in
    Array.stable_sort (fun i j -> Int.compare s.pos.(i) s.pos.(j)) perm;
    { m_pos = Array.map (Array.get s.pos) perm;
      m_obj = Array.map (Array.get s.obj) perm;
      m_hot = Array.map (Array.get s.hot) perm }
  end

(* Walk the merge of [a] and [b] in numbering order — [a] first on equal
   positions, exactly a stable sort of [a]'s allocations followed by
   [b]'s — calling [f rank_from_a index] with 1-based ids implied by the
   call order. *)
let iter_merge a b f =
  let na = Array.length a.m_pos and nb = Array.length b.m_pos in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && a.m_pos.(!i) <= b.m_pos.(!j)) then begin
      f true !i;
      incr i
    end
    else begin
      f false !j;
      incr j
    end
  done

let merge a b =
  let n = Array.length a.m_pos + Array.length b.m_pos in
  let m_pos = Array.make n 0 and m_obj = Array.make n 0 and m_hot = Array.make n false in
  let k = ref 0 in
  iter_merge a b (fun from_a i ->
      let src = if from_a then a else b in
      m_pos.(!k) <- src.m_pos.(i);
      m_obj.(!k) <- src.m_obj.(i);
      m_hot.(!k) <- src.m_hot.(i);
      incr k);
  { m_pos; m_obj; m_hot }

let empty = { m_pos = [||]; m_obj = [||]; m_hot = [||] }

let simulate sites =
  let m = List.fold_left (fun acc s -> merge acc (merged_of_site s)) empty sites in
  List.init (Array.length m.m_pos) (fun i -> (i + 1, m.m_obj.(i), m.m_hot.(i)))

(* A candidate grouping is viable if its hot ids still form a supported
   pattern under the shared numbering: All and Regular always qualify; a
   Fixed set qualifies when it is a single consecutive run (sites working
   "in tandem", like mcf's three graph allocations) or stays very small.
   This is {!Context.infer}'s decision read off the hot ranks of the
   merge in one pass: the ranks ascend and are distinct, so only their
   count, first, last and common step matter. *)
let viable ~max_fixed a b =
  let total = Array.length a.m_pos + Array.length b.m_pos in
  let n = ref 0 and first = ref 0 and last = ref 0 and step = ref 0 in
  let arithmetic = ref true and rank = ref 0 in
  iter_merge a b (fun from_a i ->
      incr rank;
      if (if from_a then a.m_hot.(i) else b.m_hot.(i)) then begin
        if !n = 0 then first := !rank
        else if !n = 1 then step := !rank - !first
        else if !rank - !last <> !step then arithmetic := false;
        last := !rank;
        incr n
      end);
  let n = !n in
  n > 0
  && (n = total
     || (n >= 3 && !arithmetic && !step >= 2)
     || !last - !first + 1 = n
     || n <= max_fixed)

let build_group counter sites m =
  let hot_ids = ref [] and hot_assignments = ref [] in
  for i = Array.length m.m_pos - 1 downto 0 do
    if m.m_hot.(i) then begin
      hot_ids := (i + 1) :: !hot_ids;
      hot_assignments := (i + 1, m.m_obj.(i)) :: !hot_assignments
    end
  done;
  let total = Array.length m.m_pos in
  { counter;
    sites;
    pattern = Context.infer ~hot_instances:!hot_ids ~total_instances:total;
    hot_assignments = !hot_assignments;
    total }

let share ?(max_fixed = 3) ?(enable = true) sites =
  List.iter
    (fun s ->
      if not (Array.exists Fun.id s.hot) then
        invalid_arg
          (Printf.sprintf "Counters.share: site %d allocates no hot object" s.site))
    sites;
  let first_pos s = if Array.length s.pos = 0 then max_int else s.pos.(0) in
  let sites = List.stable_sort (fun a b -> Int.compare (first_pos a) (first_pos b)) sites in
  if not enable then List.mapi (fun i s -> build_group i [ s.site ] (merged_of_site s)) sites
  else begin
    (* Open groups in creation order: member sites (reversed) and their
       merged allocations.  A site joins the first group it stays viable
       with, so each test costs one merge pass over the two. *)
    let groups = Array.make (List.length sites) ([], empty) in
    let n_groups = ref 0 in
    List.iter
      (fun s ->
        let m = merged_of_site s in
        let rec try_join g =
          if g = !n_groups then begin
            groups.(g) <- ([ s.site ], m);
            incr n_groups
          end
          else
            let members, gm = groups.(g) in
            if viable ~max_fixed gm m then groups.(g) <- (s.site :: members, merge gm m)
            else try_join (g + 1)
        in
        try_join 0)
      sites;
    List.init !n_groups (fun g ->
        let members, m = groups.(g) in
        build_group g (List.rev members) m)
  end

let num_counters groups = List.length groups
