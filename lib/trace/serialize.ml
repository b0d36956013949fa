let event_to_line (e : Event.t) =
  match e with
  | Alloc { obj; site; ctx; size; thread } ->
    Printf.sprintf "A %d %d %d %d %d" obj site ctx size thread
  | Access { obj; offset; write = false; thread } -> Printf.sprintf "L %d %d %d" obj offset thread
  | Access { obj; offset; write = true; thread } -> Printf.sprintf "S %d %d %d" obj offset thread
  | Free { obj; thread } -> Printf.sprintf "F %d %d" obj thread
  | Realloc { obj; new_size; thread } -> Printf.sprintf "R %d %d %d" obj new_size thread
  | Compute { instrs; thread } -> Printf.sprintf "C %d %d" instrs thread

let to_string trace =
  let buf = Buffer.create (Trace.length trace * 16) in
  Trace.iter
    (fun e ->
      Buffer.add_string buf (event_to_line e);
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf
