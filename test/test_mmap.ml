(* Tests for the zero-copy (mmap) decode path and the replay pipeline:

   - [Bigio]: mapped and read-fallback loads are byte-identical, empty
     files yield the empty region, slicing is bounds-checked;
   - differential decode: for every container version (v1, v2, v3) the
     region decoders ([Binfmt.iter_big], [Columnar.iter_big],
     [Stream.of_binary_file]) observe exactly the events, frame cuts
     and strict rejections of the channel decoders kept in
     [Container_oracle], and the lenient readers the kept events, lost
     ranges and frame counts of its bytes lenient walkers — on clean
     files, qcheck event soup and corrupted bytes alike;
   - pipeline equivalence: [Stream.prefetched] emits its inner
     stream's exact segment sequence and [Executor.run_stream_many]
     matches per-policy [Executor.run_stream] outcome-for-outcome. *)

open Prefix_trace
module Bigio = Prefix_util.Bigio
module Oracle = Container_oracle
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy

let costs = Executor.default_config.costs

let baseline heap = Policy.baseline costs heap

let workload_trace () =
  let wl = Prefix_workloads.Registry.find "libc" in
  wl.generate ~scale:Prefix_workloads.Workload.Profiling ~seed:7 ()

let with_file data k =
  let path = Filename.temp_file "prefix_mmap" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      k path)

(* ---- Bigio ---- *)

let bigio_bytes (b : Bigio.t) = Bytes.init (Bigio.length b) (Bigio.get b)

let test_bigio_load_equivalence () =
  let data = Binfmt.to_bytes_framed (workload_trace ()) in
  with_file data (fun path ->
      let mapped = Bigio.load path in
      let copied = Bigio.load ~mmap:false path in
      Alcotest.(check int) "mapped length" (Bytes.length data) (Bigio.length mapped);
      Alcotest.(check int) "copied length" (Bytes.length data) (Bigio.length copied);
      Alcotest.(check bytes) "mapped bytes" data (bigio_bytes mapped);
      Alcotest.(check bytes) "copied bytes" data (bigio_bytes copied))

let test_bigio_empty () =
  with_file Bytes.empty (fun path ->
      Alcotest.(check int) "mapped empty" 0 (Bigio.length (Bigio.load path));
      Alcotest.(check int) "copied empty" 0
        (Bigio.length (Bigio.load ~mmap:false path)))

let test_bigio_sub_string () =
  with_file (Bytes.of_string "hello, mapping") (fun path ->
      List.iter
        (fun mmap ->
          let b = Bigio.load ~mmap path in
          Alcotest.(check string) "slice" "lo, map" (Bigio.sub_string b ~pos:3 ~len:7);
          Alcotest.(check char) "get" 'h' (Bigio.get b 0);
          List.iter
            (fun (pos, len) ->
              match Bigio.sub_string b ~pos ~len with
              | _ -> Alcotest.failf "slice (%d, %d) out of bounds accepted" pos len
              | exception Invalid_argument _ -> ())
            [ (-1, 2); (0, 15); (14, 1); (7, max_int) ])
        [ true; false ])

let test_bigio_missing_file () =
  match Bigio.load "/nonexistent/prefix-bigio-test" with
  | _ -> Alcotest.fail "loaded a nonexistent file"
  | exception Sys_error _ -> ()

(* ---- differential decode: channel oracle vs region decoders ---- *)

(* Collect what a v1/v2 decode observes, tagging frame cuts, so the
   comparison covers segmentation, not just the event list. *)
type obs = Ev of Event.t | Frame

let binfmt_channel_obs path =
  let acc = ref [] in
  let r =
    Oracle.Binfmt.iter_file ~on_frame:(fun () -> acc := Frame :: !acc) path
      ~f:(fun e -> acc := Ev e :: !acc)
  in
  (r, List.rev !acc)

let binfmt_big_obs big =
  let acc = ref [] in
  let r =
    Binfmt.iter_big ~on_frame:(fun () -> acc := Frame :: !acc) big
      ~f:(fun e -> acc := Ev e :: !acc)
  in
  (r, List.rev !acc)

let check_binfmt_same what data =
  with_file data (fun path ->
      let ch = binfmt_channel_obs path in
      List.iter
        (fun mmap ->
          let bg = binfmt_big_obs (Bigio.load ~mmap path) in
          if ch <> bg then
            Alcotest.failf "%s (mmap:%b): channel and bigstring decodes differ"
              what mmap)
        [ true; false ])

let test_binfmt_big_clean () =
  let trace = workload_trace () in
  check_binfmt_same "v1" (Binfmt.to_bytes trace);
  check_binfmt_same "v2" (Binfmt.to_bytes_framed trace);
  check_binfmt_same "v2, small frames" (Binfmt.to_bytes_framed ~frame_events:17 trace);
  check_binfmt_same "empty trace" (Binfmt.to_bytes_framed (Trace.of_list []))

let test_big_version () =
  let trace = workload_trace () in
  List.iter
    (fun (what, data, version) ->
      with_file data (fun path ->
          Alcotest.(check (result int string)) what (Ok version)
            (Binfmt.big_version (Bigio.load path));
          Alcotest.(check (result int string)) (what ^ " = channel sniff")
            (Oracle.Binfmt.file_version path)
            (Binfmt.big_version (Bigio.load path))))
    [ ("v1", Binfmt.to_bytes trace, Binfmt.version);
      ("v2", Binfmt.to_bytes_framed trace, Binfmt.version_framed);
      ( "v3",
        Columnar.to_bytes (Packed.of_trace trace),
        Columnar.version_columnar ) ]

let columnar_channel_frames path =
  let acc = ref [] in
  let r = Oracle.Columnar.iter_file path ~f:(fun p -> acc := Packed.to_trace p :: !acc) in
  (r, List.rev_map Trace.to_list !acc)

let columnar_big_frames big =
  let acc = ref [] in
  let r = Columnar.iter_big big ~f:(fun p -> acc := Packed.to_trace p :: !acc) in
  (r, List.rev_map Trace.to_list !acc)

let check_columnar_same what data =
  with_file data (fun path ->
      let ch = columnar_channel_frames path in
      List.iter
        (fun mmap ->
          let bg = columnar_big_frames (Bigio.load ~mmap path) in
          if ch <> bg then
            Alcotest.failf "%s (mmap:%b): channel and bigstring decodes differ"
              what mmap)
        [ true; false ])

let test_columnar_big_clean () =
  let p = Packed.of_trace (workload_trace ()) in
  check_columnar_same "v3" (Columnar.to_bytes p);
  check_columnar_same "v3, small frames" (Columnar.to_bytes ~frame_events:23 p);
  check_columnar_same "v3, empty" (Columnar.to_bytes (Packed.of_trace (Trace.of_list [])))

let soup_gen =
  QCheck.Gen.(
    let ev =
      oneof
        [ (fun st ->
            (Event.Alloc
               { obj = int_range (-50) 50 st; site = int_range (-5) 5 st;
                 ctx = int_range (-5) 5 st; size = int_range (-200) 200 st;
                 thread = int_range (-2) 2 st } : Event.t));
          (fun st ->
            Event.Access
              { obj = int_range (-50) 50 st; offset = int_range (-200) 200 st;
                write = bool st; thread = int_range (-2) 2 st });
          (fun st -> Event.Free { obj = int_range (-50) 50 st; thread = int_range (-2) 2 st });
          (fun st ->
            Event.Realloc
              { obj = int_range (-50) 50 st; new_size = int_range (-200) 200 st;
                thread = int_range (-2) 2 st });
          (fun st ->
            Event.Compute { instrs = int_range (-100) 100 st; thread = int_range (-2) 2 st }) ]
    in
    list_size (int_range 0 300) ev)

(* Corruption differential: flip bytes / truncate, then require the
   channel and bigstring strict decoders to agree on the full
   observation — same events, same frame cuts, same rejection (by
   message) or acceptance. *)
let corrupt_gen base =
  let n = Bytes.length base in
  QCheck.Gen.(
    pair
      (list_size (int_range 0 6) (pair (int_range 0 (max 0 (n - 1))) (int_range 0 255)))
      (int_range 0 n))

let corrupted base (flips, keep) =
  let data = Bytes.sub base 0 keep in
  List.iter (fun (pos, v) -> if pos < keep then Bytes.set data pos (Char.chr v)) flips;
  data

let prop_binfmt_big_differential =
  let base = Binfmt.to_bytes_framed ~frame_events:32 (workload_trace ()) in
  QCheck.Test.make ~name:"binfmt bigstring decode ≡ channel decode under corruption"
    ~count:250
    (QCheck.make (corrupt_gen base))
    (fun c ->
      with_file (corrupted base c) (fun path ->
          binfmt_channel_obs path = binfmt_big_obs (Bigio.load path)))

let prop_columnar_big_differential =
  let base =
    Columnar.to_bytes ~frame_events:32 (Packed.of_trace (workload_trace ()))
  in
  QCheck.Test.make
    ~name:"columnar bigstring decode ≡ channel decode under corruption" ~count:250
    (QCheck.make (corrupt_gen base))
    (fun c ->
      with_file (corrupted base c) (fun path ->
          columnar_channel_frames path = columnar_big_frames (Bigio.load path)))

(* The v2 writer encodes ids/sizes as unsigned varints, so feed it
   non-negative soup (the signed extremes are covered by the columnar
   round-trip tests). *)
let unsigned_soup_gen =
  QCheck.Gen.(
    let ev =
      oneof
        [ (fun st ->
            (Event.Alloc
               { obj = int_range 0 50 st; site = int_range 0 5 st;
                 ctx = int_range 0 5 st; size = int_range 1 200 st;
                 thread = int_range 0 2 st } : Event.t));
          (fun st ->
            Event.Access
              { obj = int_range 0 50 st; offset = int_range 0 200 st;
                write = bool st; thread = int_range 0 2 st });
          (fun st -> Event.Free { obj = int_range 0 50 st; thread = int_range 0 2 st });
          (fun st ->
            Event.Realloc
              { obj = int_range 0 50 st; new_size = int_range 1 200 st;
                thread = int_range 0 2 st });
          (fun st ->
            Event.Compute { instrs = int_range 0 100 st; thread = int_range 0 2 st }) ]
    in
    list_size (int_range 0 300) ev)

(* The segments [Stream.of_binary_file] cut, rebuilt over the channel
   oracle: v1/v2 events go through a refill buffer flushed at every
   frame, v3 frames pass whole when they fit an empty buffer and are
   blitted in otherwise. *)
let oracle_segments ~segment_events path =
  let acc = ref [] in
  let base = ref 0 in
  let emit seg =
    acc := (!base, Trace.to_list (Packed.to_trace seg)) :: !acc;
    base := !base + Packed.length seg
  in
  let buf = Packed.Buf.create segment_events in
  let flush () =
    if Packed.Buf.length buf > 0 then begin
      emit (Packed.Buf.view buf);
      Packed.Buf.clear buf
    end
  in
  let on_columnar_frame frame =
    let n = Packed.length frame in
    if n <= segment_events && Packed.Buf.length buf = 0 then emit frame
    else begin
      let pos = ref 0 in
      while !pos < n do
        let len = min (segment_events - Packed.Buf.length buf) (n - !pos) in
        Packed.Buf.blit_packed buf frame ~pos:!pos ~len;
        pos := !pos + len;
        if Packed.Buf.is_full buf then flush ()
      done;
      flush ()
    end
  in
  let on_event e =
    Packed.Buf.add buf e;
    if Packed.Buf.is_full buf then flush ()
  in
  let r =
    match Oracle.Binfmt.file_version path with
    | Error _ as e -> e
    | Ok v when v = Columnar.version_columnar ->
      Oracle.Columnar.iter_file path ~f:on_columnar_frame
    | Ok _ -> Oracle.Binfmt.iter_file path ~on_frame:flush ~f:on_event
  in
  Result.map (fun () -> flush (); List.rev !acc) r

let prop_stream_segments_match_oracle =
  QCheck.Test.make ~name:"stream segments ≡ channel-oracle segments (v2 and v3)"
    ~count:120 (QCheck.make unsigned_soup_gen)
    (fun es ->
      let trace = Trace.of_list es in
      let same data =
        with_file data (fun path ->
            let acc = ref [] in
            Stream.iter_segments
              (Stream.of_binary_file ~segment_events:64 path)
              (fun ~base seg -> acc := (base, Trace.to_list (Packed.to_trace seg)) :: !acc);
            Ok (List.rev !acc) = oracle_segments ~segment_events:64 path)
      in
      same (Binfmt.to_bytes_framed ~frame_events:48 trace)
      && same (Columnar.to_bytes ~frame_events:48 (Packed.of_trace trace)))

(* ---- lenient decode: region walk vs bytes oracle ---- *)

(* Everything a lenient read reports, in comparable form. *)
let binfmt_lenient_obs = function
  | Error e -> Error e
  | Ok (l : Binfmt.lenient) ->
    Ok
      ( Trace.to_list l.lr_trace,
        List.map (fun (r : Binfmt.lost_range) -> (r.lost_from, r.lost_to)) l.lr_lost,
        (l.lr_frames_ok, l.lr_frames_skipped, l.lr_total_events) )

let columnar_lenient_obs = function
  | Error e -> Error e
  | Ok (l : Columnar.lenient) ->
    Ok
      ( Trace.to_list (Packed.to_trace l.cl_packed),
        List.map (fun (r : Binfmt.lost_range) -> (r.lost_from, r.lost_to)) l.cl_lost,
        (l.cl_frames_ok, l.cl_frames_skipped, l.cl_total_events) )

let prop_binfmt_lenient_differential =
  let base = Binfmt.to_bytes_framed ~frame_events:32 (workload_trace ()) in
  QCheck.Test.make ~name:"binfmt lenient region decode ≡ bytes lenient oracle"
    ~count:300
    (QCheck.make (corrupt_gen base))
    (fun c ->
      let data = corrupted base c in
      let oracle = binfmt_lenient_obs (Oracle.Binfmt.read_lenient data) in
      binfmt_lenient_obs (Binfmt.read_lenient data) = oracle
      && with_file data (fun path ->
             binfmt_lenient_obs (Binfmt.read_file_lenient path) = oracle))

let prop_columnar_lenient_differential =
  let base =
    Columnar.to_bytes ~frame_events:32 (Packed.of_trace (workload_trace ()))
  in
  QCheck.Test.make ~name:"columnar lenient region decode ≡ bytes lenient oracle"
    ~count:300
    (QCheck.make (corrupt_gen base))
    (fun c ->
      let data = corrupted base c in
      let oracle = columnar_lenient_obs (Oracle.Columnar.read_lenient data) in
      columnar_lenient_obs (Columnar.read_lenient data) = oracle
      && with_file data (fun path ->
             columnar_lenient_obs (Columnar.read_file_lenient path) = oracle))

(* ---- payload corruption behind a valid CRC ---- *)

(* Payload offset, length and CRC offset of every frame of a clean
   container.  Header varints are read by hand: the test walks the
   skeleton independently of the decoders under test. *)
let frame_payloads data =
  let uvarint pos =
    let rec go p shift acc =
      let b = Char.code (Bytes.get data p) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then (acc, p + 1) else go (p + 1) (shift + 7) acc
    in
    go pos 0 0
  in
  let rec walk p acc =
    if Bytes.sub_string data p 4 <> Binfmt.frame_marker then List.rev acc
    else begin
      let _, p = uvarint (p + 4) in
      let _, p = uvarint p in
      let plen, crc_at = uvarint p in
      walk (crc_at + 4 + plen) ((crc_at + 4, plen, crc_at) :: acc)
    end
  in
  walk 5 [] (* past the magic and the one-byte version *)

(* Flip bytes inside one frame's payload, then re-seal its CRC, so the
   corruption reaches the payload decoder instead of the CRC check. *)
let resealed base (k, flips) =
  let data = Bytes.copy base in
  let frames = frame_payloads base in
  let pos, plen, crc_at = List.nth frames (k mod List.length frames) in
  List.iter
    (fun (off, v) -> Bytes.set data (pos + (off mod plen)) (Char.chr v))
    flips;
  let crc = Prefix_util.Crc32.sub_bytes data ~pos ~len:plen in
  for i = 0 to 3 do
    Bytes.set data (crc_at + i) (Char.chr ((crc lsr (8 * i)) land 0xff))
  done;
  data

let reseal_gen =
  QCheck.Gen.(
    pair (int_range 0 10_000)
      (list_size (int_range 1 4) (pair (int_range 0 100_000) (int_range 0 255))))

let prop_binfmt_resealed_differential =
  let base = Binfmt.to_bytes_framed ~frame_events:32 (workload_trace ()) in
  QCheck.Test.make
    ~name:"binfmt strict and lenient ≡ oracles on CRC-valid payload corruption"
    ~count:250 (QCheck.make reseal_gen)
    (fun c ->
      let data = resealed base c in
      with_file data (fun path ->
          binfmt_channel_obs path = binfmt_big_obs (Bigio.load path)
          && binfmt_lenient_obs (Binfmt.read_lenient data)
             = binfmt_lenient_obs (Oracle.Binfmt.read_lenient data)))

let prop_columnar_resealed_differential =
  let base =
    Columnar.to_bytes ~frame_events:32 (Packed.of_trace (workload_trace ()))
  in
  QCheck.Test.make
    ~name:"columnar strict and lenient ≡ oracles on CRC-valid payload corruption"
    ~count:250 (QCheck.make reseal_gen)
    (fun c ->
      let data = resealed base c in
      with_file data (fun path ->
          columnar_channel_frames path = columnar_big_frames (Bigio.load path)
          && columnar_lenient_obs (Columnar.read_lenient data)
             = columnar_lenient_obs (Oracle.Columnar.read_lenient data)))

(* Offsets in a v2 payload error are payload-relative, as the channel
   decoder, which decodes each payload from its own buffer, reports
   them. *)
let test_binfmt_payload_error_offset () =
  let base =
    Binfmt.to_bytes_framed ~frame_events:4
      (Trace.of_list (List.init 8 (fun i -> Event.Compute { instrs = i; thread = 0 })))
  in
  (* The second frame's first tag byte becomes 9. *)
  let data = resealed base (1, [ (0, 9) ]) in
  let expected = Error "unknown tag 9 at offset 0" in
  Alcotest.(check (result unit string)) "region decode" expected
    (Result.map ignore (Binfmt.read data));
  with_file data (fun path ->
      Alcotest.(check (result unit string)) "channel oracle" expected
        (Oracle.Binfmt.iter_file path ~f:ignore))

(* ---- pipeline equivalence ---- *)

let test_prefetched_segments () =
  let trace = workload_trace () in
  let stream = Stream.of_trace ~segment_events:700 trace in
  let collect s =
    let acc = ref [] in
    Stream.iter_segments s (fun ~base seg ->
        acc := (base, Trace.to_list (Packed.to_trace seg)) :: !acc);
    List.rev !acc
  in
  let plain = collect stream in
  let pre = Stream.prefetched stream in
  Alcotest.(check bool) "same segments" true (collect pre = plain);
  (* Re-iteration spawns a fresh producer; the hand-off scratch must not
     leak state between passes. *)
  Alcotest.(check bool) "same segments on re-iteration" true (collect pre = plain)

let test_prefetched_replay_equal () =
  let p = Packed.of_trace (workload_trace ()) in
  let path = Filename.temp_file "prefix_prefetch" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Columnar.write_file path p;
      let plain = Executor.run_stream ~policy:baseline (Stream.of_binary_file path) in
      let pre =
        Executor.run_stream ~policy:baseline
          (Stream.prefetched (Stream.of_binary_file path))
      in
      Alcotest.(check bool) "metrics" true
        (plain.Executor.metrics = pre.Executor.metrics);
      Alcotest.(check bool) "recovery" true
        (plain.Executor.recovery = pre.Executor.recovery))

let test_prefetched_consumer_abort () =
  let stream = Stream.of_trace ~segment_events:100 (workload_trace ()) in
  let pre = Stream.prefetched stream in
  (match
     Stream.iter_segments pre (fun ~base:_ _ -> failwith "consumer bails")
   with
  | () -> Alcotest.fail "consumer exception swallowed"
  | exception Failure m -> Alcotest.(check string) "re-raised" "consumer bails" m);
  (* The stream stays usable after an aborted pass. *)
  let n = ref 0 in
  Stream.iter_segments pre (fun ~base:_ seg -> n := !n + Packed.length seg);
  Alcotest.(check int) "events after abort" (Trace.length (workload_trace ())) !n

let six_policies () =
  let trace = workload_trace () in
  let stats = Trace_stats.analyze_packed (Packed.of_trace trace) in
  let cls = Policy.no_classification in
  let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace stats trace in
  let halo_plan = Prefix_halo.Halo.plan_of_trace stats trace in
  let plan v = Prefix_core.Pipeline.plan_with_stats ~variant:v stats trace in
  let plan_hot = plan Prefix_core.Plan.Hot in
  let plan_hds = plan Prefix_core.Plan.Hds in
  [ (fun heap -> Policy.baseline costs heap);
    (fun heap -> Prefix_runtime.Hds_policy.policy costs heap hds_plan cls);
    (fun heap -> Prefix_runtime.Halo_policy.policy costs heap halo_plan cls);
    (fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan_hot cls);
    (fun heap -> Prefix_runtime.Prefix_policy.policy costs heap plan_hds cls);
    baseline ]

let test_run_stream_many_equal () =
  let p = Packed.of_trace (workload_trace ()) in
  let policies = six_policies () in
  let path = Filename.temp_file "prefix_fanout" ".pfxt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Columnar.write_file ~frame_events:700 path p;
      let stream = Stream.of_binary_file path in
      let fanned = Executor.run_stream_many ~policies stream in
      Alcotest.(check int) "outcome count" (List.length policies) (List.length fanned);
      List.iteri
        (fun i (policy, (o : Executor.outcome)) ->
          let solo = Executor.run_stream ~policy stream in
          Alcotest.(check bool) (Printf.sprintf "policy %d metrics" i) true
            (solo.Executor.metrics = o.Executor.metrics);
          Alcotest.(check bool) (Printf.sprintf "policy %d recovery" i) true
            (solo.Executor.recovery = o.Executor.recovery))
        (List.combine policies fanned))

let prop_run_stream_many_strict_raises_same =
  QCheck.Test.make ~name:"run_stream_many ≡ run_stream on strict anomaly detection"
    ~count:40 (QCheck.make soup_gen)
    (fun es ->
      let p = Packed.of_trace (Trace.of_list es) in
      let stream = Stream.of_packed ~segment_events:64 p in
      let solo =
        match Executor.run_stream ~policy:baseline stream with
        | (o : Executor.outcome) -> Ok o.Executor.metrics
        | exception Invalid_argument m -> Error m
      in
      let fanned =
        match Executor.run_stream_many ~policies:[ baseline; baseline ] stream with
        | [ a; b ] ->
          if a.Executor.metrics = b.Executor.metrics then Ok a.Executor.metrics
          else Error "fanned sessions diverge"
        | _ -> Error "wrong outcome arity"
        | exception Invalid_argument m -> Error m
      in
      solo = fanned)

let suite =
  [ ( "bigio",
      [ Alcotest.test_case "mmap and read-fallback loads agree" `Quick
          test_bigio_load_equivalence;
        Alcotest.test_case "empty file loads as the empty region" `Quick
          test_bigio_empty;
        Alcotest.test_case "sub_string slices and bounds-checks" `Quick
          test_bigio_sub_string;
        Alcotest.test_case "missing file raises Sys_error" `Quick
          test_bigio_missing_file ] );
    ( "mmap-decode",
      [ Alcotest.test_case "binfmt bigstring ≡ channel on clean v1/v2" `Quick
          test_binfmt_big_clean;
        Alcotest.test_case "big_version sniffs every container" `Quick
          test_big_version;
        Alcotest.test_case "columnar bigstring ≡ channel on clean v3" `Quick
          test_columnar_big_clean;
        QCheck_alcotest.to_alcotest prop_binfmt_big_differential;
        QCheck_alcotest.to_alcotest prop_columnar_big_differential;
        QCheck_alcotest.to_alcotest prop_stream_segments_match_oracle;
        QCheck_alcotest.to_alcotest prop_binfmt_lenient_differential;
        QCheck_alcotest.to_alcotest prop_columnar_lenient_differential;
        QCheck_alcotest.to_alcotest prop_binfmt_resealed_differential;
        QCheck_alcotest.to_alcotest prop_columnar_resealed_differential;
        Alcotest.test_case "v2 payload errors give payload offsets" `Quick
          test_binfmt_payload_error_offset ] );
    ( "replay-pipeline",
      [ Alcotest.test_case "prefetched emits identical segments" `Quick
          test_prefetched_segments;
        Alcotest.test_case "prefetched replay ≡ plain replay" `Quick
          test_prefetched_replay_equal;
        Alcotest.test_case "prefetched re-raises consumer exceptions" `Quick
          test_prefetched_consumer_abort;
        Alcotest.test_case "run_stream_many ≡ per-policy run_stream" `Quick
          test_run_stream_many_equal;
        QCheck_alcotest.to_alcotest prop_run_stream_many_strict_raises_same ] ) ]
