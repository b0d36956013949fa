(* The frame envelope of the on-disk trace container: magic, version,
   checksummed frames, checksummed footer.  The payload codec is the
   caller's ({!Columnar}); this module writes and walks the frames
   around it. *)

module Crc32 = Prefix_util.Crc32
module Bigio = Prefix_util.Bigio

let magic = "PFXT"
let frame_marker = "FRME"
let footer_marker = "FEND"
let default_frame_events = 1 lsl 16

(* --- varints --- *)

(* Encode [n] as an unsigned LEB128 varint, treating the full 63-bit
   pattern as unsigned: the logical shift makes the loop terminate even
   when bit 62 (OCaml's sign bit) is set, which zigzag produces for
   |n| >= 2^61.  At most 9 bytes (ceil 63/7). *)
let put_uvarint63 buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let put_uvarint buf n =
  if n < 0 then invalid_arg "Binfmt: negative unsigned varint";
  put_uvarint63 buf n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (-(n land 1))

let put_varint buf n = put_uvarint63 buf (zigzag n)

let put_u32le buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

(* A decode position inside a container region: getters advance [pos]
   and never read at or past [limit]. *)
type cursor = { big : Bigio.t; mutable pos : int; limit : int }

let ( let* ) = Result.bind

(* Decode the full-63-bit companion of {!put_uvarint63}: the sign bit is
   a legal payload bit here (zigzag of a min_int-scale delta), so only
   length is bounded (9 bytes carry exactly 63 bits). *)
let get_uvarint63 c =
  let rec go shift acc =
    if c.pos >= c.limit then Error "truncated varint"
    else begin
      let b = Char.code (Bigio.unsafe_get c.big c.pos) in
      c.pos <- c.pos + 1;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Ok acc
      else if shift > 56 then Error "varint too long"
      else go (shift + 7) acc
    end
  in
  go 0 0

let get_uvarint c =
  match get_uvarint63 c with
  | Ok acc when acc < 0 ->
    (* High continuation bytes can shift into the sign bit on corrupted
       input; an unsigned varint is never negative. *)
    Error "varint overflows"
  | r -> r

let get_varint c = Result.map unzigzag (get_uvarint63 c)

let get_u32le c =
  if c.pos + 4 > c.limit then Error "truncated checksum"
  else begin
    let b i = Char.code (Bigio.unsafe_get c.big (c.pos + i)) in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    c.pos <- c.pos + 4;
    Ok v
  end

let header big =
  let c = { big; pos = 0; limit = Bigio.length big } in
  if c.limit < 4 then Error (Printf.sprintf "empty or truncated file (offset %d)" c.limit)
  else if Bigio.sub_string big ~pos:0 ~len:4 <> magic then Error "bad magic"
  else begin
    c.pos <- 4;
    Result.map (fun v -> (c, v)) (get_uvarint c)
  end

let big_version big = Result.map snd (header big)

(* --- frame writing --------------------------------------------------- *)

type writer = {
  out : Buffer.t;
  mutable cum : int;  (* events written so far *)
  mutable frames : int;
}

let start out ~version =
  Buffer.add_string out magic;
  put_uvarint out version;
  { out; cum = 0; frames = 0 }

let add_frame w ~events payload =
  Buffer.add_string w.out frame_marker;
  put_uvarint w.out events;
  put_uvarint w.out w.cum;
  put_uvarint w.out (Buffer.length payload);
  put_u32le w.out (Crc32.string (Buffer.contents payload));
  Buffer.add_buffer w.out payload;
  w.cum <- w.cum + events;
  w.frames <- w.frames + 1

let finish w =
  let fb = Buffer.create 16 in
  put_uvarint fb w.frames;
  put_uvarint fb w.cum;
  Buffer.add_string w.out footer_marker;
  Buffer.add_buffer w.out fb;
  put_u32le w.out (Crc32.string (Buffer.contents fb))

(* --- the frame walk -----------------------------------------------------

   After the header comes one skeleton: "FRME" frames of (event count,
   cumulative count, payload length, CRC32, payload) and one "FEND"
   footer of (frame count, event count, CRC32 of those two varints).
   One strict and one lenient walk cover it; each hands every
   CRC-verified payload to the payload codec's [frame] callback. *)

(* Check one frame header, [c] just past the marker at [frame_off].  On
   success the cursor sits on the payload, whose CRC has been verified.
   The strict walk passes the events decoded so far as [expect_cum]; the
   lenient walk places a frame by its cumulative count instead. *)
let frame_header ?expect_cum c ~frame_off =
  let* events = get_uvarint c in
  let* cum = get_uvarint c in
  let* plen = get_uvarint c in
  let* () =
    if plen > c.limit - c.pos then
      Error
        (Printf.sprintf "implausible frame payload length %d at offset %d" plen frame_off)
    else Ok ()
  in
  let* () =
    (* Every event contributes at least one payload byte. *)
    if events > plen then
      Error (Printf.sprintf "implausible event count %d for %d payload bytes" events plen)
    else Ok ()
  in
  let* () =
    match expect_cum with
    | Some decoded when cum <> decoded ->
      Error
        (Printf.sprintf "frame at offset %d claims cumulative count %d but %d events decoded"
           frame_off cum decoded)
    | _ -> Ok ()
  in
  let* crc = get_u32le c in
  let* () =
    if c.pos + plen > c.limit then
      Error (Printf.sprintf "truncated frame payload at offset %d" frame_off)
    else Ok ()
  in
  if Crc32.sub_big c.big ~pos:c.pos ~len:plen <> crc then
    Error (Printf.sprintf "frame CRC mismatch at offset %d" frame_off)
  else Ok (events, cum, plen)

(* The footer's (frames, events) totals once their CRC checks. *)
let footer c =
  let fstart = c.pos in
  let* nframes = get_uvarint c in
  let* nevents = get_uvarint c in
  let fend = c.pos in
  let* crc = get_u32le c in
  if Crc32.sub_big c.big ~pos:fstart ~len:(fend - fstart) <> crc then
    Error "footer CRC mismatch"
  else Ok (nframes, nevents)

(* Strict walk: any CRC mismatch, marker corruption, cumulative count
   discrepancy, payload the callback rejects, or missing/invalid footer
   is an error. *)
let walk_frames c ~frame =
  let decoded = ref 0 in
  let frames = ref 0 in
  let rec loop () =
    if c.pos + 4 > c.limit then
      Error (Printf.sprintf "truncated file (missing footer) at offset %d" c.limit)
    else begin
      let frame_off = c.pos in
      let marker = Bigio.sub_string c.big ~pos:frame_off ~len:4 in
      c.pos <- frame_off + 4;
      if marker = frame_marker then begin
        let* events, _, plen = frame_header ~expect_cum:!decoded c ~frame_off in
        let* () = frame ~frame_off ~pos:c.pos ~plen ~events in
        c.pos <- c.pos + plen;
        decoded := !decoded + events;
        incr frames;
        loop ()
      end
      else if marker = footer_marker then begin
        let* nframes, nevents = footer c in
        if nframes <> !frames || nevents <> !decoded then
          Error
            (Printf.sprintf
               "footer totals (%d frames, %d events) disagree with stream (%d frames, %d \
                events)"
               nframes nevents !frames !decoded)
        else if c.pos <> c.limit then
          Error (Printf.sprintf "trailing bytes after footer at offset %d" c.pos)
        else Ok ()
      end
      else Error (Printf.sprintf "bad frame marker at offset %d" frame_off)
    end
  in
  loop ()

type lost_range = { lost_from : int; lost_to : int }

type walk_report = {
  lost : lost_range list;
  frames_ok : int;
  frames_skipped : int;
  total_events : int option;
}

(* Lenient walk: corrupt frames are skipped by resynchronizing on the
   next frame/footer marker, and because every good frame carries its
   cumulative event count, the exact ranges of lost events are
   reported.  A frame is [keep]-ed only once it decodes whole and lies
   past everything kept so far. *)
let walk_frames_lenient c ~frame ~keep =
  let big = c.big and len = c.limit in
  let lost = ref [] in
  let orig = ref 0 in (* original-stream event index accounted for so far *)
  let frames_ok = ref 0 in
  let skipped = ref 0 in
  let total = ref None in
  let add_lost a b = if b > a then lost := { lost_from = a; lost_to = b } :: !lost in
  let marker_at p =
    p + 4 <= len
    && (let m = Bigio.sub_string big ~pos:p ~len:4 in
        m = frame_marker || m = footer_marker)
  in
  let rec scan p = if p + 4 > len then len else if marker_at p then p else scan (p + 1) in
  let rec loop p =
    if p + 4 > len then ()
    else begin
      let m = Bigio.sub_string big ~pos:p ~len:4 in
      let c = { big; pos = p + 4; limit = len } in
      if m = frame_marker then
        match
          let* events, cum, plen = frame_header c ~frame_off:p in
          let* x = frame ~frame_off:p ~pos:c.pos ~plen ~events in
          Ok (x, events, cum, c.pos + plen)
        with
        | Ok (x, events, cum, next) when cum >= !orig ->
          add_lost !orig cum;
          keep x;
          orig := cum + events;
          incr frames_ok;
          loop next
        | _ -> resync p
      else if m = footer_marker then
        match footer c with
        | Ok (_, nevents) when nevents >= !orig ->
          add_lost !orig nevents;
          orig := nevents;
          total := Some nevents
          (* Anything after a valid footer is ignored. *)
        | _ -> resync p
      else resync p
    end
  and resync p =
    incr skipped;
    loop (scan (p + 1))
  in
  loop c.pos;
  { lost = List.rev !lost;
    frames_ok = !frames_ok;
    frames_skipped = !skipped;
    total_events = !total }

let pp_lost_range ppf r =
  Format.fprintf ppf "events [%d, %d)" r.lost_from r.lost_to
