type t = {
  name : string;
  sets : int;
  assoc : int;
  line_bits : int;
  set_mask : int;
  ways : int array;
      (* sets * assoc; each set's entries in recency order, position 0
         the MRU.  An entry is [line lsl 1 lor dirty]; -1 = invalid. *)
  mutable accesses : int;
  mutable misses : int;
  mutable writebacks : int;
}

let invalid = -1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let make ~name ~sets ~assoc ~line_bytes =
  if not (is_pow2 line_bytes) then invalid_arg "Cache: line size must be a power of two";
  if not (is_pow2 sets) then invalid_arg "Cache: set count must be a power of two";
  if assoc <= 0 then invalid_arg "Cache: associativity must be positive";
  { name;
    sets;
    assoc;
    line_bits = log2 line_bytes;
    set_mask = sets - 1;
    ways = Array.make (sets * assoc) invalid;
    accesses = 0;
    misses = 0;
    writebacks = 0 }

let create ?(name = "cache") ~size_bytes ~assoc ~line_bytes () =
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line";
  make ~name ~sets:(size_bytes / (assoc * line_bytes)) ~assoc ~line_bytes

let create_entries ?(name = "tlb") ~entries ~assoc ~page_bytes () =
  if entries mod assoc <> 0 then invalid_arg "Cache.create_entries: entries not divisible by assoc";
  make ~name ~sets:(entries / assoc) ~assoc ~line_bytes:page_bytes

let name t = t.name
let sets t = t.sets
let assoc t = t.assoc
let line_bytes t = 1 lsl t.line_bits

(* [probe] takes [write] as a plain labelled argument so the replay
   fast path pays no option boxing per reference; [access] keeps the
   original optional-argument API.  Past the MRU compare, one pass both
   searches the set and shifts each entry it passes down one position,
   so a hit at [p] or a miss costs a single loop: the hit line lands at
   position 0, a miss drops the tail (the LRU line) and installs the
   new line at 0. *)
let probe t ~write addr =
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.line_bits in
  let base = (line land t.set_mask) * t.assoc in
  let ways = t.ways in
  let e = Array.unsafe_get ways base in
  if e lsr 1 = line then begin
    if write then Array.unsafe_set ways base (e lor 1);
    true
  end
  else begin
    let dirty = Bool.to_int write in
    let stop = base + t.assoc in
    (* [prev] is the entry displaced from the position before [q]. *)
    let prev = ref e in
    let q = ref (base + 1) in
    while !q < stop && Array.unsafe_get ways !q lsr 1 <> line do
      let cur = Array.unsafe_get ways !q in
      Array.unsafe_set ways !q !prev;
      prev := cur;
      incr q
    done;
    if !q < stop then begin
      Array.unsafe_set ways base (Array.unsafe_get ways !q lor dirty);
      Array.unsafe_set ways !q !prev;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      (* Every position moved down one; [prev] fell off the tail.  It is
         the LRU line, or an invalid entry while the set fills.
         Write-back policy: evicting a dirty line costs a memory write. *)
      if !prev <> invalid && !prev land 1 = 1 then t.writebacks <- t.writebacks + 1;
      Array.unsafe_set ways base ((line lsl 1) lor dirty);
      false
    end
  end

let access ?(write = false) t addr = probe t ~write addr

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses

let writebacks t = t.writebacks

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0;
  t.writebacks <- 0

let flush t =
  Array.fill t.ways 0 (Array.length t.ways) invalid;
  reset_counters t
