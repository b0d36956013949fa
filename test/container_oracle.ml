(* Reference decoders for the columnar (v3) container: the in_channel
   decoder and the bytes lenient walker that the library's one
   Bigio-based strict walk and one lenient walk replaced.  The region
   decoders were built to match these event for event, rejection
   message for rejection message, so the differential properties in
   [Test_mmap] compare the two.  The code is kept as it was; only the
   module wrapping and the shared record types are new.  [Binfmt] holds
   the bytes-cursor wire getters the columnar reference shares. *)

open Prefix_trace
module Crc32 = Prefix_util.Crc32

module Binfmt = struct
  let magic = Binfmt.magic
  let frame_marker = Binfmt.frame_marker
  let footer_marker = Binfmt.footer_marker

  type lost_range = Binfmt.lost_range = { lost_from : int; lost_to : int }

  type cursor = { data : bytes; mutable pos : int }

  (* Decode the full-63-bit companion of {!put_uvarint63}: the sign bit is
     a legal payload bit here (zigzag of a min_int-scale delta), so only
     length is bounded (9 bytes carry exactly 63 bits). *)
  let get_uvarint63 c =
    let rec go shift acc =
      if c.pos >= Bytes.length c.data then Error "truncated varint"
      else begin
        let b = Char.code (Bytes.get c.data c.pos) in
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

  let get_u32le c =
    if c.pos + 4 > Bytes.length c.data then Error "truncated checksum"
    else begin
      let b i = Char.code (Bytes.get c.data (c.pos + i)) in
      let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
      c.pos <- c.pos + 4;
      Ok v
    end
end

module Columnar = struct
  let magic = Binfmt.magic
  let version_columnar = Columnar.version_columnar
  let frame_marker = Binfmt.frame_marker
  let footer_marker = Binfmt.footer_marker

  type lenient = Columnar.lenient = {
    cl_packed : Packed.t;
    cl_lost : Binfmt.lost_range list;
    cl_frames_ok : int;
    cl_frames_skipped : int;
    cl_total_events : int option;
  }

  (* Reusable frame-decode scratch: the column arrays are resized
     geometrically and shared with the [Packed.t] handed to consumers
     (zero-copy), so a streaming pass allocates O(max frame) however many
     frames flow through. *)
  type decoder = {
    mutable cap : int;
    mutable d_tag : int array;
    mutable d_obj : int array;
    mutable d_fa : int array;
    mutable d_fb : int array;
    mutable d_fc : int array;
    mutable d_thread : int array;
    mutable runs_cap : int;
    mutable runs_tag : int array;
    mutable runs_len : int array;
    (* Per-tag run index, rebuilt per frame from the tag pass: offsets
       and lengths of the runs of each tag, so every column pass walks
       only its own tag's runs instead of scanning the full run list. *)
    tr_n : int array;
    tr_off : int array array;
    tr_len : int array array;
    mutable dict_cap : int;
    mutable dict : int array;
  }

  let decoder_create () =
    { cap = 0;
      d_tag = [||];
      d_obj = [||];
      d_fa = [||];
      d_fb = [||];
      d_fc = [||];
      d_thread = [||];
      runs_cap = 0;
      runs_tag = [||];
      runs_len = [||];
      tr_n = Array.make 5 0;
      tr_off = Array.make 5 [||];
      tr_len = Array.make 5 [||];
      dict_cap = 0;
      dict = [||] }

  let grow_to n cur = max n (max 16 (2 * cur))

  let ensure_cap d n =
    if n > d.cap then begin
      let c = grow_to n d.cap in
      d.cap <- c;
      d.d_tag <- Array.make c 0;
      d.d_obj <- Array.make c 0;
      d.d_fa <- Array.make c 0;
      d.d_fb <- Array.make c 0;
      d.d_fc <- Array.make c 0;
      d.d_thread <- Array.make c 0
    end

  let ensure_runs d n =
    if n > d.runs_cap then begin
      let c = grow_to n d.runs_cap in
      d.runs_cap <- c;
      d.runs_tag <- Array.make c 0;
      d.runs_len <- Array.make c 0;
      for t = 0 to 4 do
        d.tr_off.(t) <- Array.make c 0;
        d.tr_len.(t) <- Array.make c 0
      done
    end

  let ensure_dict d n =
    if n > d.dict_cap then begin
      let c = grow_to n d.dict_cap in
      d.dict_cap <- c;
      d.dict <- Array.make c 0
    end

  exception Corrupt of string

  let fail msg = raise (Corrupt msg)

  (* Decode one CRC-verified payload at [data[pos, pos+plen)] into [d] and
     return the frame as a zero-copy packed view over the scratch arrays
     (valid until the next decode into [d]).  All structural claims are
     validated, so a bit-flipped payload that somehow passes the CRC still
     cannot crash the caller or fabricate out-of-range columns. *)
  let decode_payload d data ~pos:pos0 ~plen ~n_events =
    try
      let limit = pos0 + plen in
      if limit > Bytes.length data then fail "truncated frame payload";
      let pos = ref pos0 in
      let u8 () =
        if !pos >= limit then fail "truncated column";
        let b = Char.code (Bytes.unsafe_get data !pos) in
        incr pos;
        b
      in
      (* Exception-based varint readers, flattened into iterative loops
         with a single-byte fast path: these run two-to-three times per
         event and dominate decode time.  [unsafe_get] is guarded by the
         [limit] check; shifts stay in 0..56 (9 bytes = 63 bits), exactly
         the encoder's range. *)
      let slow_tail first_byte =
        let acc = ref (first_byte land 0x7f) in
        let shift = ref 7 in
        let p = ref (!pos + 1) in
        let more = ref true in
        while !more do
          if !shift > 56 then fail "varint too long";
          if !p >= limit then fail "truncated column";
          let b = Char.code (Bytes.unsafe_get data !p) in
          incr p;
          acc := !acc lor ((b land 0x7f) lsl !shift);
          shift := !shift + 7;
          if b land 0x80 = 0 then more := false
        done;
        pos := !p;
        !acc
      in
      let uv () =
        let p = !pos in
        if p >= limit then fail "truncated column";
        let b = Char.code (Bytes.unsafe_get data p) in
        if b < 0x80 then begin
          pos := p + 1;
          b
        end
        else begin
          let acc = slow_tail b in
          if acc < 0 then fail "varint overflows";
          acc
        end
      in
      let sv () =
        let p = !pos in
        if p >= limit then fail "truncated column";
        let b = Char.code (Bytes.unsafe_get data p) in
        let acc =
          if b < 0x80 then begin
            pos := p + 1;
            b
          end
          else slow_tail b
        in
        (acc lsr 1) lxor (- (acc land 1))
      in
      ensure_cap d n_events;
      let tag_a = d.d_tag
      and obj_a = d.d_obj
      and fa_a = d.d_fa
      and fb_a = d.d_fb
      and fc_a = d.d_fc
      and thread_a = d.d_thread in
      (* 1. tag runs *)
      let n_runs = uv () in
      if n_runs > n_events then fail "implausible run count";
      ensure_runs d n_runs;
      let runs_tag = d.runs_tag and runs_len = d.runs_len in
      let filled = ref 0 in
      let n_alloc = ref 0 and n_access = ref 0 in
      Array.fill d.tr_n 0 5 0;
      for r = 0 to n_runs - 1 do
        let t = u8 () in
        if t > Packed.tag_compute then fail "bad tag in run index";
        let rl = uv () in
        if rl <= 0 || !filled + rl > n_events then fail "tag runs overflow event count";
        runs_tag.(r) <- t;
        runs_len.(r) <- rl;
        Array.fill tag_a !filled rl t;
        let tn = Array.unsafe_get d.tr_n t in
        Array.unsafe_set (Array.unsafe_get d.tr_off t) tn !filled;
        Array.unsafe_set (Array.unsafe_get d.tr_len t) tn rl;
        Array.unsafe_set d.tr_n t (tn + 1);
        if t = Packed.tag_alloc then n_alloc := !n_alloc + rl
        else if t = Packed.tag_access then n_access := !n_access + rl;
        filled := !filled + rl
      done;
      if !filled <> n_events then fail "tag runs disagree with event count";
      (* 2. site dictionary *)
      let n_sites = uv () in
      if n_sites > !n_alloc then fail "implausible dictionary size";
      ensure_dict d n_sites;
      let dict = d.dict in
      let prev = ref 0 in
      for s = 0 to n_sites - 1 do
        prev := !prev + sv ();
        dict.(s) <- !prev
      done;
      (* 3. obj column (Compute rows are implicitly 0) *)
      let prev_obj = ref 0 in
      let off = ref 0 in
      for r = 0 to n_runs - 1 do
        let rl = Array.unsafe_get runs_len r in
        if Array.unsafe_get runs_tag r = Packed.tag_compute then
          Array.fill obj_a !off rl 0
        else
          for k = !off to !off + rl - 1 do
            prev_obj := !prev_obj + sv ();
            Array.unsafe_set obj_a k !prev_obj
          done;
        off := !off + rl
      done;
      (* Per-column passes: each walks only its own tag's runs, via the
         per-tag index built in the tag pass above. *)
      let iter_runs tag fill =
        let offs = Array.unsafe_get d.tr_off tag
        and lens = Array.unsafe_get d.tr_len tag in
        for r = 0 to Array.unsafe_get d.tr_n tag - 1 do
          fill (Array.unsafe_get offs r) (Array.unsafe_get lens r)
        done
      in
      (* 4. alloc sites (dictionary indices) -> fa *)
      iter_runs Packed.tag_alloc (fun off rl ->
          for k = off to off + rl - 1 do
            let ix = uv () in
            if ix >= n_sites then fail "site index out of dictionary range";
            Array.unsafe_set fa_a k (Array.unsafe_get dict ix)
          done);
      (* 5. alloc sizes -> fb *)
      iter_runs Packed.tag_alloc (fun off rl ->
          for k = off to off + rl - 1 do
            Array.unsafe_set fb_a k (sv ())
          done);
      (* 6. alloc ctxs (delta-chained) -> fc *)
      let prev_ctx = ref 0 in
      iter_runs Packed.tag_alloc (fun off rl ->
          for k = off to off + rl - 1 do
            prev_ctx := !prev_ctx + sv ();
            Array.unsafe_set fc_a k !prev_ctx
          done);
      (* 7. access offsets -> fa *)
      iter_runs Packed.tag_access (fun off rl ->
          for k = off to off + rl - 1 do
            Array.unsafe_set fa_a k (sv ())
          done);
      (* 8. access write flags (bit-packed) -> fb *)
      let bitn = ref 0 in
      let wcur = ref 0 in
      iter_runs Packed.tag_access (fun off rl ->
          for k = off to off + rl - 1 do
            if !bitn land 7 = 0 then wcur := u8 ();
            Array.unsafe_set fb_a k ((!wcur lsr (!bitn land 7)) land 1);
            incr bitn
          done);
      (* 9. realloc new sizes -> fa *)
      iter_runs Packed.tag_realloc (fun off rl ->
          for k = off to off + rl - 1 do
            Array.unsafe_set fa_a k (sv ())
          done);
      (* 10. compute instrs -> fa *)
      iter_runs Packed.tag_compute (fun off rl ->
          for k = off to off + rl - 1 do
            Array.unsafe_set fa_a k (sv ())
          done);
      (* Zero the fields each tag leaves undefined, matching
         {!Packed.of_trace}'s layout exactly (bulk fills per run). *)
      iter_runs Packed.tag_access (fun off rl -> Array.fill fc_a off rl 0);
      iter_runs Packed.tag_free (fun off rl ->
          Array.fill fa_a off rl 0;
          Array.fill fb_a off rl 0;
          Array.fill fc_a off rl 0);
      iter_runs Packed.tag_realloc (fun off rl ->
          Array.fill fb_a off rl 0;
          Array.fill fc_a off rl 0);
      iter_runs Packed.tag_compute (fun off rl ->
          Array.fill fb_a off rl 0;
          Array.fill fc_a off rl 0);
      (* 11. thread runs *)
      let n_truns = uv () in
      if n_truns > n_events then fail "implausible thread run count";
      let toff = ref 0 in
      for _ = 1 to n_truns do
        let th = sv () in
        let rl = uv () in
        if rl <= 0 || !toff + rl > n_events then fail "thread runs overflow event count";
        Array.fill thread_a !toff rl th;
        toff := !toff + rl
      done;
      if !toff <> n_events then fail "thread runs disagree with event count";
      if !pos <> limit then fail "frame payload length mismatch";
      Ok
        (Packed.of_arrays ~len:n_events ~tag:tag_a ~obj:obj_a ~fa:fa_a ~fb:fb_a
           ~fc:fc_a ~thread:thread_a)
    with Corrupt msg -> Error msg

  let get_uvarint = Binfmt.get_uvarint
  let get_u32le = Binfmt.get_u32le

  let check_header (c : Binfmt.cursor) =
    let ( let* ) = Result.bind in
    let data = c.Binfmt.data in
    let* () =
      if Bytes.length data < 4 then
        Error (Printf.sprintf "empty or truncated file (offset %d)" (Bytes.length data))
      else if Bytes.sub_string data 0 4 <> magic then Error "bad magic"
      else begin
        c.Binfmt.pos <- 4;
        Ok ()
      end
    in
    let* v = get_uvarint c in
    if v <> version_columnar then
      Error (Printf.sprintf "unsupported version %d (columnar is %d)" v version_columnar)
    else Ok ()

  (* Concatenate per-frame copies into one packed trace. *)
  let concat_chunks chunks total =
    let tag = Array.make total 0
    and obj = Array.make total 0
    and fa = Array.make total 0
    and fb = Array.make total 0
    and fc = Array.make total 0
    and thread = Array.make total 0 in
    let off = ref 0 in
    List.iter
      (fun (p : Packed.t) ->
        let n = Packed.length p in
        Array.blit p.Packed.tag 0 tag !off n;
        Array.blit p.Packed.obj 0 obj !off n;
        Array.blit p.Packed.fa 0 fa !off n;
        Array.blit p.Packed.fb 0 fb !off n;
        Array.blit p.Packed.fc 0 fc !off n;
        Array.blit p.Packed.thread 0 thread !off n;
        off := !off + n)
      (List.rev chunks);
    Packed.of_arrays ~len:total ~tag ~obj ~fa ~fb ~fc ~thread

  (* Copy a decoded frame out of the decoder scratch (materializing
     readers only; the streaming path never copies). *)
  let copy_frame (p : Packed.t) =
    let n = Packed.length p in
    Packed.of_arrays ~len:n
      ~tag:(Array.sub p.Packed.tag 0 n)
      ~obj:(Array.sub p.Packed.obj 0 n)
      ~fa:(Array.sub p.Packed.fa 0 n)
      ~fb:(Array.sub p.Packed.fb 0 n)
      ~fc:(Array.sub p.Packed.fc 0 n)
      ~thread:(Array.sub p.Packed.thread 0 n)

  let lenient_events_lost l =
    List.fold_left
      (fun acc (r : Binfmt.lost_range) -> acc + (r.lost_to - r.lost_from))
      0 l.cl_lost

  let read_lenient data =
    let ( let* ) = Result.bind in
    let c = { Binfmt.data; pos = 0 } in
    let* () = check_header c in
    let len = Bytes.length data in
    let d = decoder_create () in
    let chunks = ref [] in
    let kept = ref 0 in
    let lost = ref [] in
    let orig = ref 0 in
    let ok_frames = ref 0 in
    let skipped = ref 0 in
    let total = ref None in
    let add_lost a b =
      if b > a then lost := { Binfmt.lost_from = a; lost_to = b } :: !lost
    in
    let marker_at p =
      p + 4 <= len
      && (let m = Bytes.sub_string data p 4 in
          m = frame_marker || m = footer_marker)
    in
    let rec scan p = if p + 4 > len then len else if marker_at p then p else scan (p + 1) in
    let try_frame p =
      let c = { Binfmt.data; pos = p + 4 } in
      let parse =
        let* events = get_uvarint c in
        let* cum = get_uvarint c in
        let* plen = get_uvarint c in
        let* crc = get_u32le c in
        if c.Binfmt.pos + plen > len || events > plen then Error "bounds"
        else if Crc32.sub_bytes data ~pos:c.Binfmt.pos ~len:plen <> crc then Error "crc"
        else
          let* frame = decode_payload d data ~pos:c.Binfmt.pos ~plen ~n_events:events in
          Ok (copy_frame frame, cum, c.Binfmt.pos + plen)
      in
      Result.to_option parse
    in
    let try_footer p =
      let c = { Binfmt.data; pos = p + 4 } in
      let parse =
        let* _nframes = get_uvarint c in
        let* nevents = get_uvarint c in
        let fend = c.Binfmt.pos in
        let* crc = get_u32le c in
        if Crc32.sub_bytes data ~pos:(p + 4) ~len:(fend - (p + 4)) <> crc then Error "crc"
        else Ok nevents
      in
      Result.to_option parse
    in
    let rec loop p =
      if p + 4 > len then ()
      else
        let m = Bytes.sub_string data p 4 in
        if m = frame_marker then
          match try_frame p with
          | Some (frame, cum, next) when cum >= !orig ->
            add_lost !orig cum;
            chunks := frame :: !chunks;
            kept := !kept + Packed.length frame;
            orig := cum + Packed.length frame;
            incr ok_frames;
            loop next
          | _ ->
            incr skipped;
            loop (scan (p + 1))
        else if m = footer_marker then begin
          match try_footer p with
          | Some nevents when nevents >= !orig ->
            add_lost !orig nevents;
            orig := nevents;
            total := Some nevents
          | _ ->
            incr skipped;
            loop (scan (p + 1))
        end
        else begin
          incr skipped;
          loop (scan (p + 1))
        end
    in
    loop c.Binfmt.pos;
    Ok
      { cl_packed = concat_chunks !chunks !kept;
        cl_lost = List.rev !lost;
        cl_frames_ok = !ok_frames;
        cl_frames_skipped = !skipped;
        cl_total_events = !total }

  (* ---- streaming decode ------------------------------------------------- *)

  (* Strict frame-at-a-time walk off a channel: O(frame) memory, the
     callback's packed view shares the decoder scratch and is only valid
     for the duration of the call. *)
  let iter_channel ?(decoder = decoder_create ()) ic ~f =
    let ( let* ) = Result.bind in
    let* () =
      match really_input_string ic 4 with
      | exception End_of_file ->
        Error (Printf.sprintf "empty or truncated file (offset %d)" (pos_in ic))
      | m -> if m <> magic then Error "bad magic" else Ok ()
    in
    let get_uv () =
      let rec go shift acc =
        match input_char ic with
        | exception End_of_file -> Error "truncated varint"
        | ch ->
          let b = Char.code ch in
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b land 0x80 = 0 then if acc < 0 then Error "varint overflows" else Ok acc
          else if shift > 56 then Error "varint too long"
          else go (shift + 7) acc
      in
      go 0 0
    in
    let* v = get_uv () in
    let* () =
      if v <> version_columnar then
        Error (Printf.sprintf "unsupported version %d (columnar is %d)" v version_columnar)
      else Ok ()
    in
    let remaining () =
      match in_channel_length ic - pos_in ic with
      | exception Sys_error _ -> max_int
      | r -> r
    in
    let decoded = ref 0 in
    let frames = ref 0 in
    let payload = ref Bytes.empty in
    let rec loop () =
      match really_input_string ic 4 with
      | exception End_of_file ->
        Error (Printf.sprintf "truncated file (missing footer) at offset %d" (pos_in ic))
      | marker when marker = frame_marker ->
        let frame_off = pos_in ic - 4 in
        let* events = get_uv () in
        let* cum = get_uv () in
        let* plen = get_uv () in
        let* () =
          if plen > remaining () then
            Error
              (Printf.sprintf "implausible frame payload length %d at offset %d" plen
                 frame_off)
          else Ok ()
        in
        let* () =
          if events > plen then
            Error
              (Printf.sprintf "implausible event count %d for %d payload bytes" events plen)
          else Ok ()
        in
        let* () =
          if cum <> !decoded then
            Error
              (Printf.sprintf
                 "frame at offset %d claims cumulative count %d but %d events decoded"
                 frame_off cum !decoded)
          else Ok ()
        in
        let crc_bytes = Bytes.create 4 in
        let* () =
          match really_input ic crc_bytes 0 4 with
          | exception End_of_file -> Error "truncated checksum"
          | () -> Ok ()
        in
        let b i = Char.code (Bytes.get crc_bytes i) in
        let crc = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
        if Bytes.length !payload < plen then payload := Bytes.create (grow_to plen (Bytes.length !payload));
        let* () =
          match really_input ic !payload 0 plen with
          | exception End_of_file ->
            Error (Printf.sprintf "truncated frame payload at offset %d" frame_off)
          | () -> Ok ()
        in
        let* () =
          if Crc32.sub_bytes !payload ~pos:0 ~len:plen <> crc then
            Error (Printf.sprintf "frame CRC mismatch at offset %d" frame_off)
          else Ok ()
        in
        let* frame = decode_payload decoder !payload ~pos:0 ~plen ~n_events:events in
        f frame;
        decoded := !decoded + events;
        incr frames;
        loop ()
      | marker when marker = footer_marker ->
        let fb = Buffer.create 16 in
        let get_uvarint_copy () =
          let rec go shift acc =
            match input_char ic with
            | exception End_of_file -> Error "truncated varint"
            | ch ->
              Buffer.add_char fb ch;
              let b = Char.code ch in
              let acc = acc lor ((b land 0x7f) lsl shift) in
              if b land 0x80 = 0 then
                if acc < 0 then Error "varint overflows" else Ok acc
              else if shift > 56 then Error "varint too long"
              else go (shift + 7) acc
          in
          go 0 0
        in
        let* nframes = get_uvarint_copy () in
        let* nevents = get_uvarint_copy () in
        let crc_bytes = Bytes.create 4 in
        let* () =
          match really_input ic crc_bytes 0 4 with
          | exception End_of_file -> Error "truncated checksum"
          | () -> Ok ()
        in
        let b i = Char.code (Bytes.get crc_bytes i) in
        let crc = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
        let* () =
          if Crc32.string (Buffer.contents fb) <> crc then Error "footer CRC mismatch"
          else Ok ()
        in
        let* () =
          if nframes <> !frames || nevents <> !decoded then
            Error
              (Printf.sprintf
                 "footer totals (%d frames, %d events) disagree with stream (%d frames, \
                  %d events)"
                 nframes nevents !frames !decoded)
          else Ok ()
        in
        (match input_char ic with
        | exception End_of_file -> Ok ()
        | _ ->
          Error (Printf.sprintf "trailing bytes after footer at offset %d" (pos_in ic - 1)))
      | _ -> Error (Printf.sprintf "bad frame marker at offset %d" (pos_in ic - 4))
    in
    loop ()

  let iter_file ?decoder path ~f =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> iter_channel ?decoder ic ~f)
end
