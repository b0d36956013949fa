(* Tests for the trace pruner and the frame envelope of the on-disk
   trace container ([Binfmt]).

   The envelope tests carry a text payload (the events'
   [Serialize.event_to_line] lines), not the columnar one, so they pin
   the frame layout — writing, strict walk, lenient walk — apart from
   any payload codec.  The columnar payload itself is tested in
   [Test_columnar]. *)

open Prefix_trace
module B = Prefix_workloads.Builder
module Bigio = Prefix_util.Bigio

(* ---- Pruner ---- *)

let pruner_input () =
  let b = B.create ~seed:21 () in
  let hot = B.alloc b ~site:1 64 in
  let cold = B.alloc b ~site:2 64 in
  for _ = 1 to 50 do
    (* a long same-object run on the hot object, one cold access *)
    for k = 0 to 9 do
      B.access b hot (k * 4 mod 64)
    done;
    B.access b cold 0
  done;
  B.free b hot;
  B.free b cold;
  (B.trace b, hot, cold)

let test_prune_drops_cold_accesses () =
  let trace, hot, _cold = pruner_input () in
  let cfg = { Pruner.keep_objects = (fun o -> o = hot); max_run = max_int } in
  let pruned = Pruner.prune cfg trace in
  Trace.iter
    (fun e ->
      match (e : Event.t) with
      | Access { obj; _ } -> Alcotest.(check int) "only hot accesses" hot obj
      | _ -> ())
    pruned;
  (* All non-access events survive: 2 allocs + 2 frees. *)
  let non_access =
    Trace.fold (fun n e -> if Event.is_heap_access e then n else n + 1) 0 pruned
  in
  Alcotest.(check int) "alloc/free preserved" 4 non_access

let test_prune_caps_runs () =
  let trace, hot, _ = pruner_input () in
  let cfg = { Pruner.keep_objects = (fun o -> o = hot); max_run = 3 } in
  let pruned = Pruner.prune cfg trace in
  (* Each 10-access run is capped at 3: 50 runs * 3 accesses. *)
  Alcotest.(check int) "runs capped" 150 (Trace.num_accesses pruned)

let test_prune_preserves_validity () =
  let trace, hot, _ = pruner_input () in
  let cfg = { Pruner.keep_objects = (fun o -> o = hot); max_run = 2 } in
  let pruned = Pruner.prune cfg trace in
  Alcotest.(check int) "valid" 0 (List.length (Trace.validate pruned))

let test_prune_config_for_hot () =
  let trace, hot, _ = pruner_input () in
  let stats = Trace_stats.analyze trace in
  let cfg = Pruner.config_for_hot stats in
  Alcotest.(check bool) "hot kept" true (cfg.keep_objects hot);
  let pruned = Pruner.prune cfg trace in
  Alcotest.(check bool) "reduction positive" true
    (Pruner.reduction ~before:trace ~after:pruned > 0.3)

let test_prune_keeps_instance_numbering () =
  (* Instance numbering over the pruned trace must match the original. *)
  let trace, _, _ = pruner_input () in
  let stats = Trace_stats.analyze trace in
  let cfg = Pruner.config_for_hot stats in
  let pruned = Pruner.prune cfg trace in
  let s1 = Trace_stats.analyze trace and s2 = Trace_stats.analyze pruned in
  List.iter
    (fun (o : Trace_stats.obj_info) ->
      let o' = Trace_stats.obj_info s2 o.obj in
      Alcotest.(check int) "same instance" o.instance o'.instance;
      Alcotest.(check int) "same site" o.site o'.site)
    (Trace_stats.objects s1)

(* ---- the frame envelope ---- *)

let ( let* ) = Result.bind

(* One frame per chunk of events; the payload is the chunk's text. *)
let frame_of_events es =
  (List.length es, String.concat "" (List.map (fun e -> Serialize.event_to_line e ^ "\n") es))

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

let text_frames ~frame_events trace =
  List.map frame_of_events (chunks frame_events (Trace.to_list trace))

(* A container of the given (event count, payload) frames. *)
let envelope frames =
  let buf = Buffer.create 4096 in
  let w = Binfmt.start buf ~version:Columnar.version_columnar in
  let payload = Buffer.create 256 in
  List.iter
    (fun (events, s) ->
      Buffer.clear payload;
      Buffer.add_string payload s;
      Binfmt.add_frame w ~events payload)
    frames;
  Binfmt.finish w;
  Buffer.to_bytes buf

let frame_payload big ~frame_off:_ ~pos ~plen ~events =
  Ok (events, Bigio.sub_string big ~pos ~len:plen)

(* The frames a strict walk hands to its payload codec. *)
let walk data =
  let big = Bigio.of_bytes data in
  let* c, _ = Binfmt.header big in
  let acc = ref [] in
  let* () =
    Binfmt.walk_frames c ~frame:(fun ~frame_off ~pos ~plen ~events ->
        Result.map (fun f -> acc := f :: !acc) (frame_payload big ~frame_off ~pos ~plen ~events))
  in
  Ok (List.rev !acc)

(* The frames a lenient walk keeps, and its report. *)
let walk_lenient data =
  let big = Bigio.of_bytes data in
  let* c, _ = Binfmt.header big in
  let acc = ref [] in
  let r =
    Binfmt.walk_frames_lenient c ~frame:(frame_payload big) ~keep:(fun f -> acc := f :: !acc)
  in
  Ok (List.rev !acc, r)

let workload name =
  let w = Prefix_workloads.Registry.find name in
  w.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 ()

(* Writer and strict walk agree frame for frame on workload traces,
   and the columnar container over the same envelope decodes back to
   the trace. *)
let test_binfmt_roundtrip_workloads () =
  List.iter
    (fun name ->
      let trace = workload name in
      let frames = text_frames ~frame_events:1000 trace in
      Alcotest.(check (result (list (pair int string)) string))
        (name ^ " frames") (Ok frames) (walk (envelope frames));
      match Columnar.read (Columnar.to_bytes (Packed.of_trace trace)) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok p ->
        Alcotest.(check bool) (name ^ " columnar events") true
          (Trace.to_list (Packed.to_trace p) = Trace.to_list trace))
    [ "mcf"; "libc"; "swissmap" ]

let test_binfmt_compact () =
  let trace = workload "libc" in
  let binary = Bytes.length (Columnar.to_bytes (Packed.of_trace trace)) in
  let text = String.length (Serialize.to_string trace) in
  Alcotest.(check bool)
    (Printf.sprintf "columnar (%d B) at most half of text (%d B)" binary text)
    true
    (binary * 2 < text)

let test_binfmt_rejects_garbage () =
  List.iter
    (fun (what, data, expected) ->
      Alcotest.(check (result (list (pair int string)) string)) what (Error expected)
        (walk (Bytes.of_string data)))
    [ ("bad magic", "nope", "bad magic");
      ("no version", "PFXT", "truncated varint");
      ("no frames, no footer", "PFXT\003", "truncated file (missing footer) at offset 5");
      ( "frame claims a payload it lacks",
        "PFXT\003FRME\001\000\001",
        "implausible frame payload length 1 at offset 5" );
      ("bad marker", "PFXT\003FRMX", "bad frame marker at offset 5") ]

let test_binfmt_file_io () =
  let trace = workload "mcf" in
  let path = Filename.temp_file "prefix_trace" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Columnar.write_file path (Packed.of_trace trace);
      match Columnar.read_file path with
      | Ok p -> Alcotest.(check int) "roundtrip" (Trace.length trace) (Packed.length p)
      | Error e -> Alcotest.fail e)

let event_gen =
  QCheck.Gen.(
    oneof
      [ map3
          (fun o s size -> Event.Alloc { obj = o; site = s; ctx = s; size = size + 1; thread = 0 })
          (int_range 1 1000) (int_range 1 50) (int_range 0 5000);
        map2
          (fun o off -> Event.Access { obj = o; offset = off; write = off mod 2 = 0; thread = 0 })
          (int_range 1 1000) (int_range 0 10_000);
        map (fun o -> Event.Free { obj = o; thread = 0 }) (int_range 1 1000);
        map2 (fun o s -> Event.Realloc { obj = o; new_size = s + 1; thread = 0 })
          (int_range 1 1000) (int_range 0 5000);
        map (fun n -> Event.Compute { instrs = n; thread = 0 }) (int_range 0 100_000) ])

let prop_binfmt_roundtrip =
  QCheck.Test.make ~name:"binfmt roundtrips arbitrary event lists, one frame per list"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) (list_size (int_range 0 40) event_gen)))
    (fun lists ->
      let frames = List.map frame_of_events lists in
      walk (envelope frames) = Ok frames)

(* Decode fuzz: random byte edits and truncations of a valid envelope
   must yield [Ok] or [Error] from either walk — never an exception
   (and never an absurd allocation). *)
let prop_binfmt_decode_fuzz =
  let base = envelope (text_frames ~frame_events:50 (workload "mcf")) in
  let n = Bytes.length base in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 8) (pair (int_range 0 (n - 1)) (int_range 0 255)))
        (int_range 0 n))
  in
  QCheck.Test.make ~name:"binfmt decode survives byte flips and truncation"
    ~count:500 (QCheck.make gen)
    (fun (flips, keep) ->
      let data = Bytes.sub base 0 keep in
      List.iter
        (fun (pos, v) ->
          if pos < keep then Bytes.set data pos (Char.chr v))
        flips;
      match (walk data, walk_lenient data) with
      | _ -> true
      | exception _ -> false)

(* ---- varint extremes ---- *)

(* The signed (zig-zag) varint must round-trip the full 63-bit [int]
   range: [zigzag min_int] has bit 62 set, so the unsigned encoder
   must not reject it as "negative" (it only looks negative after the
   shift) and the decoder must accept an accumulator whose top bit is
   set.  This was broken before [put_uvarint63]/[get_uvarint63]. *)
let cursor_of_buffer buf =
  let big = Bigio.of_bytes (Buffer.to_bytes buf) in
  { Binfmt.big; pos = 0; limit = Bigio.length big }

let varint_roundtrip n =
  let buf = Buffer.create 10 in
  Binfmt.put_varint buf n;
  let c = cursor_of_buffer buf in
  match Binfmt.get_varint c with
  | Error e -> Alcotest.failf "varint %d: %s" n e
  | Ok n' ->
    Alcotest.(check int) (Printf.sprintf "varint %d" n) n n';
    Alcotest.(check int) "all bytes consumed" c.Binfmt.limit c.Binfmt.pos

let test_varint_extremes () =
  List.iter varint_roundtrip
    [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int; max_int - 1; min_int + 1;
      1 lsl 62; -(1 lsl 62); 0x7fffffff; -0x80000000 ]

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"signed varint roundtrips the full int range" ~count:1000
    QCheck.(set_gen QCheck.Gen.int int)
    (fun n ->
      let buf = Buffer.create 10 in
      Binfmt.put_varint buf n;
      let c = cursor_of_buffer buf in
      Binfmt.get_varint c = Ok n && c.Binfmt.pos = c.Binfmt.limit)

(* The unsigned primitives the frame headers use, at their extremes:
   [max_int] round-trips, a negative is refused on write, and a decoded
   sign bit or a tenth byte is corruption. *)
let test_event_int_extremes () =
  let buf = Buffer.create 16 in
  Binfmt.put_uvarint buf max_int;
  Binfmt.put_u32le buf 0xffff_ffff;
  let c = cursor_of_buffer buf in
  Alcotest.(check (result int string)) "uvarint max_int" (Ok max_int) (Binfmt.get_uvarint c);
  Alcotest.(check (result int string)) "u32 max" (Ok 0xffff_ffff) (Binfmt.get_u32le c);
  Alcotest.(check (result int string)) "u32 truncated" (Error "truncated checksum")
    (Binfmt.get_u32le c);
  (match Binfmt.put_uvarint buf (-1) with
  | () -> Alcotest.fail "wrote a negative unsigned varint"
  | exception Invalid_argument _ -> ());
  let decode s = Binfmt.get_uvarint (cursor_of_buffer (Buffer.of_seq (String.to_seq s))) in
  Alcotest.(check (result int string)) "sign bit" (Error "varint overflows")
    (decode "\xff\xff\xff\xff\xff\xff\xff\xff\x7f");
  Alcotest.(check (result int string)) "ten bytes" (Error "varint too long")
    (decode "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01");
  Alcotest.(check (result int string)) "truncated" (Error "truncated varint") (decode "\x80")

(* ---- frames ---- *)

let framed_input = lazy (workload "libc")

let test_framed_roundtrip_small_frames () =
  let trace = Lazy.force framed_input in
  List.iter
    (fun frame_events ->
      let frames = text_frames ~frame_events trace in
      Alcotest.(check int)
        (Printf.sprintf "frames of %d: count" frame_events)
        ((Trace.length trace + frame_events - 1) / frame_events)
        (List.length frames);
      Alcotest.(check (result (list (pair int string)) string))
        (Printf.sprintf "frames of %d" frame_events)
        (Ok frames) (walk (envelope frames)))
    [ 1; 7; 1000; 1_000_000 ]

let framed_data = lazy (envelope (text_frames ~frame_events:200 (Lazy.force framed_input)))

let test_framed_strict_rejects_corruption () =
  let data = Lazy.force framed_data in
  let n = Bytes.length data in
  List.iter
    (fun pos ->
      let d = Bytes.copy data in
      Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor 0x01));
      match walk d with
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "offset %d: %s" pos e) true
          (String.starts_with ~prefix:"frame CRC mismatch at offset " e)
      | Ok _ -> Alcotest.failf "accepted a flipped byte at offset %d" pos)
    [ n / 4; n / 2; (3 * n) / 4 ];
  (* Losing the footer is also corruption for the strict walk. *)
  Alcotest.(check (result (list (pair int string)) string)) "truncated"
    (Error (Printf.sprintf "truncated file (missing footer) at offset %d" (n - 8)))
    (walk (Bytes.sub data 0 (n - 8)))

(* Byte offsets of every frame marker, so corruption can be aimed at
   one specific frame. *)
let frame_offsets data =
  let n = Bytes.length data in
  let acc = ref [] in
  for p = n - 4 downto 0 do
    if Bytes.sub_string data p 4 = Binfmt.frame_marker then acc := p :: !acc
  done;
  !acc

let splice d ~pos ~del ~ins =
  let n = Bytes.length d in
  Bytes.concat Bytes.empty
    [ Bytes.sub d 0 pos; Bytes.of_string ins; Bytes.sub d (pos + del) (n - pos - del) ]

(* Damage the k-th frame — a flipped payload byte, inserted or deleted
   payload bytes — and expect exactly its event range reported lost;
   a byte inserted just before its marker only displaces it, and the
   marker rescan must find it again one byte on. *)
let test_framed_lenient_exact_loss () =
  let trace = Lazy.force framed_input in
  let total = Trace.length trace in
  let frame_events = 200 in
  let frames = text_frames ~frame_events trace in
  let data = Lazy.force framed_data in
  let offsets = frame_offsets data in
  let nframes = List.length offsets in
  Alcotest.(check int) "frame count" (List.length frames) nframes;
  let damage =
    [ ( "flip",
        true,
        fun off ->
          let d = Bytes.copy data in
          Bytes.set d (off + 24) (Char.chr (Char.code (Bytes.get d (off + 24)) lxor 0x40));
          d );
      ("insert", true, fun off -> splice data ~pos:(off + 24) ~del:0 ~ins:"\x11\x22\x33");
      ("delete", true, fun off -> splice data ~pos:(off + 24) ~del:3 ~ins:"");
      ("insert before marker", false, fun off -> splice data ~pos:off ~del:0 ~ins:"\x00") ]
  in
  List.iter
    (fun (how, loses, damage) ->
      List.iter
        (fun k ->
          let what = Printf.sprintf "%s, frame %d" how k in
          match walk_lenient (damage (List.nth offsets k)) with
          | Error e -> Alcotest.fail e
          | Ok (kept, r) ->
            let lost_from = k * frame_events in
            let lost_to = if loses then min total ((k + 1) * frame_events) else lost_from in
            Alcotest.(check (list (pair int int)))
              (what ^ ": lost range")
              (if loses then [ (lost_from, lost_to) ] else [])
              (List.map (fun (l : Binfmt.lost_range) -> (l.lost_from, l.lost_to)) r.lost);
            Alcotest.(check (list (pair int string))) (what ^ ": frames kept")
              (if loses then List.filteri (fun i _ -> i <> k) frames else frames)
              kept;
            Alcotest.(check int) (what ^ ": frames skipped") 1 r.frames_skipped;
            Alcotest.(check (option int)) (what ^ ": footer total") (Some total)
              r.total_events)
        [ 0; nframes / 2; nframes - 1 ])
    damage

let test_framed_lenient_truncation () =
  let frames = text_frames ~frame_events:200 (Lazy.force framed_input) in
  let data = Lazy.force framed_data in
  (* Cut mid-way: the tail (and the footer) are gone, so the total is
     unknowable and the surviving prefix is whole frames only. *)
  match walk_lenient (Bytes.sub data 0 (Bytes.length data / 2)) with
  | Error e -> Alcotest.fail e
  | Ok (kept, r) ->
    Alcotest.(check (option int)) "no footer" None r.total_events;
    Alcotest.(check bool) "something recovered" true (kept <> []);
    Alcotest.(check (list (pair int string))) "a prefix of whole frames"
      (List.filteri (fun i _ -> i < List.length kept) frames)
      kept

let test_binfmt_empty_file_message () =
  List.iter
    (fun data ->
      let expected = Printf.sprintf "empty or truncated file (offset %d)" (String.length data) in
      Alcotest.(check (result unit string)) (Printf.sprintf "%S" data) (Error expected)
        (Result.map ignore (walk (Bytes.of_string data)));
      Alcotest.(check (result unit string)) (Printf.sprintf "columnar %S" data)
        (Error expected)
        (Result.map ignore (Columnar.read (Bytes.of_string data))))
    [ ""; "PF" ]

(* Frames larger than a segment: segments never exceed their size, and
   every frame boundary still cuts a segment. *)
let test_stream_of_binary_file_frame_boundaries () =
  let trace = Lazy.force framed_input in
  let total = Trace.length trace in
  let frame_events = 512 and segment_events = 200 in
  let path = Filename.temp_file "prefix_framed" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Columnar.write_file ~frame_events path (Packed.of_trace trace);
      let stream = Stream.of_binary_file ~segment_events path in
      let seen = ref 0 in
      Stream.iter_segments stream (fun ~base seg ->
          let n = Packed.length seg in
          Alcotest.(check int) "segment base is the running total" !seen base;
          Alcotest.(check bool) "segment within its size" true (n <= segment_events);
          Alcotest.(check bool) "no segment spans a frame boundary" true
            (base / frame_events = (base + n - 1) / frame_events);
          seen := !seen + n);
      Alcotest.(check int) "all events streamed" total !seen)

let suite =
  [ ( "pruner",
      [ Alcotest.test_case "drops cold accesses" `Quick test_prune_drops_cold_accesses;
        Alcotest.test_case "caps runs" `Quick test_prune_caps_runs;
        Alcotest.test_case "preserves validity" `Quick test_prune_preserves_validity;
        Alcotest.test_case "config for hot" `Quick test_prune_config_for_hot;
        Alcotest.test_case "keeps instance numbering" `Quick
          test_prune_keeps_instance_numbering ] );
    ( "binfmt",
      [ Alcotest.test_case "roundtrips workload traces" `Quick test_binfmt_roundtrip_workloads;
        Alcotest.test_case "compact vs text" `Quick test_binfmt_compact;
        Alcotest.test_case "rejects garbage" `Quick test_binfmt_rejects_garbage;
        Alcotest.test_case "file io" `Quick test_binfmt_file_io;
        QCheck_alcotest.to_alcotest prop_binfmt_roundtrip;
        QCheck_alcotest.to_alcotest prop_binfmt_decode_fuzz;
        Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
        QCheck_alcotest.to_alcotest prop_varint_roundtrip;
        Alcotest.test_case "events at int extremes" `Quick test_event_int_extremes ] );
    (* The group keeps the name of the format that introduced the frame
       envelope (v2); it now carries the columnar payload. *)
    ( "binfmt-v2",
      [ Alcotest.test_case "framed roundtrip, small frames" `Quick
          test_framed_roundtrip_small_frames;
        Alcotest.test_case "strict read rejects corruption" `Quick
          test_framed_strict_rejects_corruption;
        Alcotest.test_case "lenient read pins the exact lost range" `Quick
          test_framed_lenient_exact_loss;
        Alcotest.test_case "lenient read of a truncated file" `Quick
          test_framed_lenient_truncation;
        Alcotest.test_case "empty file error message" `Quick
          test_binfmt_empty_file_message;
        Alcotest.test_case "of_binary_file cuts segments at frame boundaries"
          `Quick test_stream_of_binary_file_frame_boundaries ] ) ]
