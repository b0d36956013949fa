type slot = { offset : int; size : int }

module Itbl = Hashtbl.Make (Int)

type t = {
  slots : slot list; (* placement order *)
  index : int Itbl.t; (* obj -> slot index *)
  total : int;
}

let align = 16

let round_up n = (n + align - 1) / align * align

let assign ~size_of order =
  let index = Itbl.create (List.length order) in
  let slots, _, total =
    List.fold_left
      (fun (acc, i, off) obj ->
        if Itbl.mem index obj then invalid_arg "Offsets.assign: duplicate object";
        let size = size_of obj in
        if size <= 0 then invalid_arg "Offsets.assign: non-positive size";
        let size = round_up size in
        Itbl.replace index obj i;
        ({ offset = off; size } :: acc, i + 1, off + size))
      ([], 0, 0) order
  in
  { slots = List.rev slots; index; total }

let slots t = t.slots

let slot_of_obj t obj = Itbl.find_opt t.index obj

let region_bytes t = t.total

let truncate t ~max_bytes =
  let kept = ref [] in
  let total = ref 0 in
  List.iter
    (fun s ->
      if s.offset + s.size <= max_bytes then begin
        kept := s :: !kept;
        total := s.offset + s.size
      end)
    t.slots;
  let n_kept = List.length !kept in
  let index = Itbl.create n_kept in
  Itbl.iter (fun obj i -> if i < n_kept then Itbl.replace index obj i) t.index;
  { slots = List.rev !kept; index; total = !total }

let extend t ~count ~size =
  if count <= 0 || size <= 0 then invalid_arg "Offsets.extend: bad geometry";
  let size = round_up size in
  let first = List.length t.slots in
  let extra = List.init count (fun i -> { offset = t.total + (i * size); size }) in
  ({ t with slots = t.slots @ extra; total = t.total + (count * size) }, first)
