(* Tests for the zero-copy (mmap) decode path and the replay pipeline:

   - [Bigio]: mapped and read-fallback loads are byte-identical, empty
     files yield the empty region, slicing is bounds-checked;
   - differential decode: the columnar region decoders
     ([Columnar.iter_big], [Stream.of_binary_file]) observe exactly the
     frames, segment cuts and strict rejections of the channel decoder
     kept in [Container_oracle], and the lenient readers the kept
     events, lost ranges and frame counts of its bytes lenient walker —
     on clean files, qcheck event soup and corrupted bytes (flips,
     insertions, deletions, truncation) alike;
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
  let data = Columnar.to_bytes (Packed.of_trace (workload_trace ())) in
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

(* The sniff reads any version varint, including the retired v1/v2
   containers and unknown ones, which the readers then reject. *)
let test_big_version () =
  let trace = workload_trace () in
  List.iter
    (fun (what, data, version) ->
      with_file (Bytes.of_string data) (fun path ->
          List.iter
            (fun mmap ->
              Alcotest.(check (result int string)) what version
                (Binfmt.big_version (Bigio.load ~mmap path)))
            [ true; false ]))
    [ ("v1 header", "PFXT\001\000", Ok 1);
      ("v2 header", "PFXT\002FEND", Ok 2);
      ("v3", Bytes.to_string (Columnar.to_bytes (Packed.of_trace trace)), Ok 3);
      ("v300", "PFXT\xac\x02", Ok 300);
      ("bad magic", "PFXZ\003", Error "bad magic");
      ("empty", "", Error "empty or truncated file (offset 0)");
      ("no version", "PFXT", Error "truncated varint") ]

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

(* Corruption differential: flip, insert and delete bytes, then
   truncate, and require the region and reference decoders to agree on
   the full observation — same frames, same rejection (by message) or
   acceptance.  Insertions and deletions shift every marker after them,
   so the lenient walk has to find its next frame by rescanning. *)
type edit = Flip of int * int | Insert of int * int | Delete of int

let corrupt_gen base =
  let n = Bytes.length base in
  (* Half the edits land within a few bytes of a frame or footer
     marker, where a resync that starts its rescan too late would miss
     the displaced marker. *)
  let markers =
    Array.of_list
      (List.filter
         (fun p ->
           let m = Bytes.sub_string base p 4 in
           m = Binfmt.frame_marker || m = Binfmt.footer_marker)
         (List.init (max 0 (n - 3)) Fun.id))
  in
  QCheck.Gen.(
    let pos =
      if markers = [||] then int_range 0 (max 0 (n - 1))
      else
        oneof
          [ int_range 0 (n - 1);
            map2
              (fun i d -> max 0 (min (n - 1) (markers.(i) + d)))
              (int_range 0 (Array.length markers - 1))
              (int_range (-2) 2) ]
    in
    pair
      (list_size (int_range 0 6)
         (oneof
            [ map2 (fun p v -> Flip (p, v)) pos (int_range 0 255);
              map2 (fun p v -> Insert (p, v)) pos (int_range 0 255);
              map (fun p -> Delete p) pos ]))
      (int_range 0 n))

let corrupted base (edits, keep) =
  let data =
    List.fold_left
      (fun d e ->
        let n = Bytes.length d in
        match e with
        | Flip (p, v) when p < n ->
          let d = Bytes.copy d in
          Bytes.set d p (Char.chr v);
          d
        | Insert (p, v) when p <= n ->
          Bytes.concat Bytes.empty
            [ Bytes.sub d 0 p; Bytes.make 1 (Char.chr v); Bytes.sub d p (n - p) ]
        | Delete p when p < n ->
          Bytes.cat (Bytes.sub d 0 p) (Bytes.sub d (p + 1) (n - p - 1))
        | _ -> d)
      base edits
  in
  Bytes.sub data 0 (min keep (Bytes.length data))

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

(* The segments [Stream.of_binary_file] cut, rebuilt over the channel
   oracle: frames pass whole when they fit an empty buffer and are
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
  let on_frame frame =
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
  let r = Oracle.Columnar.iter_file path ~f:on_frame in
  Result.map (fun () -> flush (); List.rev !acc) r

let prop_stream_segments_match_oracle =
  QCheck.Test.make ~name:"stream segments ≡ channel-oracle segments (v3)"
    ~count:120 (QCheck.make soup_gen)
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
      same (Columnar.to_bytes ~frame_events:48 (Packed.of_trace trace)))

(* ---- lenient decode: region walk vs bytes oracle ---- *)

(* Everything a lenient read reports, in comparable form. *)
let columnar_lenient_obs = function
  | Error e -> Error e
  | Ok (l : Columnar.lenient) ->
    Ok
      ( Trace.to_list (Packed.to_trace l.cl_packed),
        List.map (fun (r : Binfmt.lost_range) -> (r.lost_from, r.lost_to)) l.cl_lost,
        (l.cl_frames_ok, l.cl_frames_skipped, l.cl_total_events) )

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
      [ Alcotest.test_case "big_version sniffs every container" `Quick
          test_big_version;
        Alcotest.test_case "columnar bigstring ≡ channel on clean v3" `Quick
          test_columnar_big_clean;
        QCheck_alcotest.to_alcotest prop_columnar_big_differential;
        QCheck_alcotest.to_alcotest prop_stream_segments_match_oracle;
        QCheck_alcotest.to_alcotest prop_columnar_lenient_differential;
        QCheck_alcotest.to_alcotest prop_columnar_resealed_differential ] );
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
