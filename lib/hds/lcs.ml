(* One flat table per domain, row stride [m + 1], reused across calls
   (see the interface).  A call takes it out of its slot while in use. *)
let scratch = Domain.DLS.new_key (fun () -> [||])

let lcs_with_positions (a : int array) (b : int array) =
  let n = Array.length a and m = Array.length b in
  let w = m + 1 in
  let cells = (n + 1) * w in
  let dp =
    let buf = Domain.DLS.get scratch in
    if Array.length buf >= cells then buf else Array.make cells 0
  in
  Domain.DLS.set scratch [||];
  Array.fill dp 0 w 0;
  for i = 1 to n do
    let ai = a.(i - 1) and row = i * w in
    let up = row - w in
    dp.(row) <- 0;
    for j = 1 to m do
      dp.(row + j) <-
        (if ai = b.(j - 1) then dp.(up + j - 1) + 1
         else
           let x = dp.(up + j) and y = dp.(row + j - 1) in
           if x >= y then x else y)
    done
  done;
  let rec back i j acc =
    if i = 0 || j = 0 then acc
    else begin
      let here = (i * w) + j in
      if a.(i - 1) = b.(j - 1) && dp.(here) = dp.(here - w - 1) + 1 then
        back (i - 1) (j - 1) ((a.(i - 1), i - 1, j - 1) :: acc)
      else if dp.(here - w) >= dp.(here - 1) then back (i - 1) j acc
      else back i (j - 1) acc
    end
  in
  let matches = back n m [] in
  Domain.DLS.set scratch dp;
  matches

let lcs a b = Array.of_list (List.map (fun (v, _, _) -> v) (lcs_with_positions a b))

let length a b =
  (* Two-row DP; keep the shorter sequence as the row. *)
  let a, b = if Array.length a < Array.length b then (b, a) else (a, b) in
  let m = Array.length b in
  let prev = Array.make (m + 1) 0 and cur = Array.make (m + 1) 0 in
  Array.iter
    (fun ai ->
      for j = 1 to m do
        cur.(j) <- (if ai = b.(j - 1) then prev.(j - 1) + 1 else max prev.(j) cur.(j - 1))
      done;
      Array.blit cur 0 prev 0 (m + 1);
      Array.fill cur 0 (m + 1) 0)
    a;
  prev.(m)

let similarity a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then 0.
  else 2. *. float_of_int (length a b) /. float_of_int (n + m)

let split_runs ~max_gap matches =
  let rec go acc cur last = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | (v, i, j) :: rest -> (
      match last with
      | Some (pi, pj) when i - pi > max_gap || j - pj > max_gap ->
        go (List.rev cur :: acc) [ v ] (Some (i, j)) rest
      | _ -> go acc (v :: cur) (Some (i, j)) rest)
  in
  go [] [] None matches |> List.filter (fun r -> r <> [])
