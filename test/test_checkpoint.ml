(* Crash-safety tests: session snapshot/restore determinism, the
   checkpoint container (CRC, rotation, torn-write fallback), and
   durable benchmark runs resuming to byte-identical reports. *)

module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Metrics = Prefix_runtime.Metrics
module Workload = Prefix_workloads.Workload
module Stream = Prefix_trace.Stream
module Packed = Prefix_trace.Packed

let costs = Executor.default_config.costs

(* A small but representative workload trace: enough events for several
   segments, exercised under every policy family. *)
let eval_trace =
  lazy
    (let w = Prefix_workloads.Registry.find "libc" in
     w.generate ~scale:Workload.Profiling ~seed:7 ())

let policies () =
  let w = Prefix_workloads.Registry.find "libc" in
  let prof = w.generate ~scale:Workload.Profiling ~seed:7 () in
  let stats = Prefix_trace.Trace_stats.analyze prof in
  let plan =
    Prefix_core.Pipeline.plan_with_stats ~variant:Prefix_core.Plan.HdsHot stats prof
  in
  let hds_plan = Prefix_runtime.Hds_policy.plan_of_trace stats prof in
  let halo_plan = Prefix_halo.Halo.plan_of_trace stats prof in
  [ ("baseline", fun heap -> Policy.baseline costs heap);
    ( "hds",
      fun heap ->
        Prefix_runtime.Hds_policy.policy costs heap hds_plan Policy.no_classification );
    ( "halo",
      fun heap ->
        Prefix_runtime.Halo_policy.policy costs heap halo_plan Policy.no_classification );
    ( "prefix",
      fun heap ->
        Prefix_runtime.Prefix_policy.policy costs heap plan Policy.no_classification ) ]

let run_clean policy stream =
  let heap = Prefix_heap.Allocator.create () in
  let p = policy heap in
  let st =
    Executor.session_create ~config:Executor.default_config ~mode:Policy.Strict
      ~heatmap_objs:None ~attribute:false ~heap ~p
  in
  Stream.iter_segments stream (fun ~base seg -> Executor.replay_segment st ~base seg);
  Executor.session_finish st

(* Replay up to segment [k], serialize + deserialize the session there,
   and finish on the restored copy. *)
let run_snapshotted policy stream ~snap_at =
  let heap = Prefix_heap.Allocator.create () in
  let p = policy heap in
  let st =
    ref
      (Executor.session_create ~config:Executor.default_config ~mode:Policy.Strict
         ~heatmap_objs:None ~attribute:false ~heap ~p)
  in
  let seg_idx = ref 0 in
  Stream.iter_segments stream (fun ~base seg ->
      Executor.replay_segment !st ~base seg;
      incr seg_idx;
      if !seg_idx = snap_at then begin
        let s = Executor.session_serialize !st in
        match Executor.session_deserialize s with
        | Ok st' -> st := st'
        | Error e -> Alcotest.fail e
      end);
  Executor.session_finish !st

let check_same_outcome name (a : Executor.outcome) (b : Executor.outcome) =
  Alcotest.(check bool)
    (name ^ ": identical metrics") true (a.metrics = b.metrics);
  Alcotest.(check bool)
    (name ^ ": identical recovery") true (a.recovery = b.recovery)

let test_session_snapshot_roundtrip () =
  let trace = Lazy.force eval_trace in
  let packed = Packed.of_trace trace in
  let segs = 1 + (Packed.length packed / 2048) in
  List.iter
    (fun (name, policy) ->
      let stream () = Stream.of_packed ~segment_events:2048 packed in
      let clean = run_clean policy (stream ()) in
      (* Snapshot at the first, a middle, and the last boundary. *)
      List.iter
        (fun snap_at ->
          let resumed = run_snapshotted policy (stream ()) ~snap_at in
          check_same_outcome (Printf.sprintf "%s@%d" name snap_at) clean resumed)
        [ 1; segs / 2; segs ])
    (policies ())

(* ---- checkpoint container ---- *)

module Checkpoint = Prefix_runtime.Checkpoint
module Fsio = Prefix_util.Fsio

let sample_header =
  { Checkpoint.kind = "session";
    meta = [ ("bench", "libc"); ("scale", "long"); ("seed", "1234") ];
    event_index = 987654 }

let test_container_roundtrip () =
  let payload = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  let data = Checkpoint.encode sample_header ~payload in
  match Checkpoint.decode data with
  | Error e -> Alcotest.fail e
  | Ok (h, p) ->
    Alcotest.(check string) "kind" sample_header.kind h.Checkpoint.kind;
    Alcotest.(check int) "event index" sample_header.event_index
      h.Checkpoint.event_index;
    Alcotest.(check (list (pair string string)))
      "meta" sample_header.meta h.Checkpoint.meta;
    Alcotest.(check string) "payload" payload p

let test_container_rejects_corruption () =
  let payload = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  let data = Checkpoint.encode sample_header ~payload in
  let n = String.length data in
  (* A flip anywhere — magic, header, payload — must be caught. *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string data in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x04));
      match Checkpoint.decode (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted a flip at offset %d" pos)
    [ 0; 5; n / 2; n - 1 ];
  (* ... and so must any truncation. *)
  List.iter
    (fun keep ->
      match Checkpoint.decode (String.sub data 0 keep) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted truncation to %d bytes" keep)
    [ 0; 3; n / 2; n - 1 ]

let test_container_meta_check () =
  (match
     Checkpoint.check_meta sample_header ~kind:"session"
       ~meta:[ ("bench", "libc"); ("seed", "1234") ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (kind, meta) ->
      match Checkpoint.check_meta sample_header ~kind ~meta with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "accepted mismatched identity")
    [ ("stats", [ ("bench", "libc") ]);  (* wrong kind *)
      ("session", [ ("bench", "mcf") ]);  (* wrong value *)
      ("session", [ ("trace_digest", "d41d8") ]) (* missing key *) ]

let with_temp_dir f =
  let dir = Filename.temp_file "prefix_ckpt" "" in
  Sys.remove dir;
  Fsio.mkdir_p dir;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let test_save_rotation_and_torn_fallback () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "x.ckpt" in
  let header i = { sample_header with Checkpoint.event_index = i } in
  Checkpoint.save ~path (header 1) ~payload:"first";
  Checkpoint.save ~path (header 2) ~payload:"second";
  (* Intact: the current copy wins. *)
  (match Checkpoint.load ~path with
  | Ok (h, p, `Current) ->
    Alcotest.(check int) "current event" 2 h.Checkpoint.event_index;
    Alcotest.(check string) "current payload" "second" p
  | Ok (_, _, `Previous) -> Alcotest.fail "read .prev despite intact current"
  | Error e -> Alcotest.fail e);
  (* Tear the current copy mid-write: .prev must absorb it. *)
  let oc = open_out_bin path in
  output_string oc "PFXC\001torn";
  close_out oc;
  (match Checkpoint.validate ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "validated a torn file");
  (match Checkpoint.load ~path with
  | Ok (h, p, `Previous) ->
    Alcotest.(check int) "prev event" 1 h.Checkpoint.event_index;
    Alcotest.(check string) "prev payload" "first" p
  | Ok (_, _, `Current) -> Alcotest.fail "read the torn current copy"
  | Error e -> Alcotest.fail e);
  (* Both copies torn: the loss is reported, not masked. *)
  let oc = open_out_bin (Checkpoint.prev_path path) in
  output_string oc "garbage";
  close_out oc;
  match Checkpoint.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded from two torn copies"

(* ---- durable runs: interruption, torn state, identity ---- *)

module Durable = Prefix_experiments.Durable
module Registry = Prefix_workloads.Registry

let durable_cfg ~dir =
  { Durable.dir;
    every = 1;
    throttle_ms = 0.;  (* checkpoint at full cadence: more kill points *)
    guardrails = Checkpoint.no_guardrails;
    jobs = 1;
    scale = Workload.Profiling;
    streaming = true;
    segment_events = Some 1024 }

exception Killed

(* Run [wl] durably but abort (in-process) right after the [k]-th
   checkpoint write, as a crash there would. *)
let run_killed cfg wl ~kill_after =
  Checkpoint.reset_saves ();
  Checkpoint.set_after_save (fun n -> if n >= kill_after then raise Killed);
  Fun.protect
    ~finally:(fun () ->
      Checkpoint.set_after_save (fun _ -> ());
      Checkpoint.reset_saves ())
    (fun () ->
      match Durable.run_benchmark cfg wl with
      | r -> Some (Durable.render r)  (* fewer saves than k: ran to the end *)
      | exception Killed -> None)

let test_durable_resume_after_every_kill_point () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun clean_dir ->
  let clean = Durable.render (Durable.run_benchmark (durable_cfg ~dir:clean_dir) wl) in
  (* Re-running over the finished directory replays nothing and renders
     the same report. *)
  Alcotest.(check string) "finished dir is idempotent" clean
    (Durable.render (Durable.run_benchmark (durable_cfg ~dir:clean_dir) wl));
  (* Kill after the 1st, 2nd, ... save until a run completes instead;
     every interrupted directory must resume to the clean report. *)
  let rec go kill_after =
    if kill_after > 500 then Alcotest.fail "durable run never completed"
    else
      with_temp_dir @@ fun dir ->
      let cfg = durable_cfg ~dir in
      match run_killed cfg wl ~kill_after with
      | Some report ->
        Alcotest.(check string) "uninterrupted report" clean report
      | None ->
        let resumed = Durable.render (Durable.run_benchmark cfg wl) in
        Alcotest.(check string)
          (Printf.sprintf "resume after kill at save %d" kill_after)
          clean resumed;
        go (kill_after + 1)
  in
  go 1

let test_durable_resume_with_torn_checkpoint () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun clean_dir ->
  let clean = Durable.render (Durable.run_benchmark (durable_cfg ~dir:clean_dir) wl) in
  with_temp_dir @@ fun dir ->
  let cfg = durable_cfg ~dir in
  (match run_killed cfg wl ~kill_after:4 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected the run to be interrupted");
  (* Tear every rolling snapshot the kill left behind; resume must fall
     back to .prev (or restart the phase) and still converge. *)
  let bdir = Filename.concat dir wl.name in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ckpt" then begin
        let p = Filename.concat bdir f in
        let data =
          match Fsio.read_file p with Ok d -> d | Error e -> Alcotest.fail e
        in
        let oc = open_out_bin p in
        output_string oc (String.sub data 0 (String.length data / 2));
        close_out oc
      end)
    (Sys.readdir bdir);
  let resumed = Durable.render (Durable.run_benchmark cfg wl) in
  Alcotest.(check string) "resume over torn snapshots" clean resumed

(* The materialized (non-streamed) evaluation path checkpoints and
   resumes identically. *)
let test_durable_materialized_kill_resume () =
  let wl = Registry.find "libc" in
  let cfg ~dir = { (durable_cfg ~dir) with streaming = false } in
  with_temp_dir @@ fun clean_dir ->
  let clean = Durable.render (Durable.run_benchmark (cfg ~dir:clean_dir) wl) in
  List.iter
    (fun kill_after ->
      with_temp_dir @@ fun dir ->
      match run_killed (cfg ~dir) wl ~kill_after with
      | Some report -> Alcotest.(check string) "ran to the end" clean report
      | None ->
        let resumed = Durable.render (Durable.run_benchmark (cfg ~dir) wl) in
        Alcotest.(check string)
          (Printf.sprintf "materialized resume after save %d" kill_after)
          clean resumed)
    [ 2; 5; 9 ]

(* Killing a pooled (jobs=2) durable run mid-flight and resuming it
   must converge on the sequential run's reports, for both benchmarks. *)
let test_durable_jobs2_kill_resume () =
  let names = [ "libc"; "swissmap" ] in
  let cfg2 ~dir = { (durable_cfg ~dir) with jobs = 2 } in
  with_temp_dir @@ fun clean_dir ->
  let clean =
    String.concat ""
      (List.map Durable.render (Durable.run_many (cfg2 ~dir:clean_dir) names))
  in
  with_temp_dir @@ fun dir ->
  let cfg = cfg2 ~dir in
  Checkpoint.reset_saves ();
  Checkpoint.set_after_save (fun n -> if n >= 5 then raise Killed);
  (match Durable.run_many cfg names with
  | _ -> Alcotest.fail "expected the pooled run to be interrupted"
  | exception Killed -> ()
  | exception _ -> () (* a pool domain died mid-kill; same crash site *));
  Checkpoint.set_after_save (fun _ -> ());
  Checkpoint.reset_saves ();
  let resumed =
    String.concat "" (List.map Durable.render (Durable.run_many cfg names))
  in
  Alcotest.(check string) "pooled resume" clean resumed

let test_durable_refuses_foreign_directory () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun dir ->
  let cfg = durable_cfg ~dir in
  (match run_killed cfg wl ~kill_after:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected the run to be interrupted");
  (* Same directory, different run identity: refused loudly rather than
     silently blending two runs' state. *)
  let other = { cfg with segment_events = Some 2048 } in
  match Durable.run_benchmark other wl with
  | _ -> Alcotest.fail "resumed under a mismatched configuration"
  | exception Failure msg ->
    Alcotest.(check bool) "names the mismatch" true
      (String.length msg > 0)

(* Statistics snapshots record the collector's layout.  A snapshot from
   a build with another layout — forged here from the original
   collector, marshalled as that build wrote it — must never be read
   back as this build's collector: mid-phase the phase restarts, and a
   finished one is refused. *)
let test_durable_foreign_collector_layout () =
  let module Old_stats = Test_planning.Old_stats in
  let wl = Registry.find "libc" in
  let cfg ~dir = durable_cfg ~dir in
  let forge path =
    match Checkpoint.load_file path with
    | Error e -> Alcotest.fail (path ^ ": " ^ e)
    | Ok (h, _) ->
      let c = Old_stats.collector () in
      Stream.iter_segments
        (Workload.generate_stream wl ~scale:Workload.Profiling
           ~seed:(Prefix_experiments.Harness.seed + 1) ~segment_events:1024 ())
        (fun ~base seg ->
          if base + Packed.length seg <= h.event_index then Old_stats.feed c ~base seg);
      let meta =
        List.map (fun (k, v) -> if k = "stats_layout" then (k, "1") else (k, v)) h.meta
      in
      Alcotest.(check bool) "snapshot records the layout" true
        (List.mem_assoc "stats_layout" h.meta);
      Checkpoint.save ~path { h with meta } ~payload:(Marshal.to_string c [])
  in
  with_temp_dir @@ fun clean_dir ->
  let clean = Durable.render (Durable.run_benchmark (cfg ~dir:clean_dir) wl) in
  (* Mid-phase: resume restarts the statistics and converges. *)
  (with_temp_dir @@ fun dir ->
   (match run_killed (cfg ~dir) wl ~kill_after:3 with
   | None -> ()
   | Some _ -> Alcotest.fail "expected the run to be interrupted");
   let bdir = Filename.concat dir wl.name in
   Alcotest.(check bool) "interrupted inside the statistics phase" true
     (Sys.file_exists (Filename.concat bdir "stats.ckpt")
     && not (Sys.file_exists (Filename.concat bdir "stats.done")));
   forge (Filename.concat bdir "stats.ckpt");
   Alcotest.(check string) "restarted over a foreign snapshot" clean
     (Durable.render (Durable.run_benchmark (cfg ~dir) wl)));
  (* Finished: the phase's result is refused. *)
  forge (Filename.concat (Filename.concat clean_dir wl.name) "stats.done");
  match Durable.run_benchmark (cfg ~dir:clean_dir) wl with
  | _ -> Alcotest.fail "read a foreign collector layout"
  | exception Failure msg ->
    let needle = "stats snapshot does not match this binary" in
    let rec contains i =
      i + String.length needle <= String.length msg
      && (String.sub msg i (String.length needle) = needle || contains (i + 1))
    in
    Alcotest.(check bool) ("refused: " ^ msg) true (contains 0)

(* Finished policy outcomes record their layout too: a policy-*.done
   whose layout is not this build's — forged by rewriting the recorded
   layout, as a build with another [Executor.outcome] would have
   written it — is refused, never unmarshalled. *)
let test_durable_foreign_outcome_layout () =
  let wl = Registry.find "libc" in
  with_temp_dir @@ fun dir ->
  let cfg = durable_cfg ~dir in
  ignore (Durable.run_benchmark cfg wl);
  let bdir = Filename.concat dir wl.name in
  let done_files =
    Sys.readdir bdir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 7 && String.sub f 0 7 = "policy-"
           && Filename.check_suffix f ".done")
  in
  Alcotest.(check int) "one finished outcome per policy" 7 (List.length done_files);
  let path = Filename.concat bdir (List.hd done_files) in
  (match Checkpoint.load_file path with
  | Error e -> Alcotest.fail (path ^ ": " ^ e)
  | Ok (h, payload) ->
    Alcotest.(check (option string)) "outcome records the layout"
      (Some Executor.outcome_layout)
      (List.assoc_opt "outcome_layout" h.meta);
    let meta =
      List.map
        (fun (k, v) -> if k = "outcome_layout" then (k, "0") else (k, v))
        h.meta
    in
    Checkpoint.save ~path { h with meta } ~payload);
  match Durable.run_benchmark cfg wl with
  | _ -> Alcotest.fail "read a foreign outcome layout"
  | exception Failure msg ->
    let needle = "outcome snapshot does not match this binary" in
    let rec contains i =
      i + String.length needle <= String.length msg
      && (String.sub msg i (String.length needle) = needle || contains (i + 1))
    in
    Alcotest.(check bool) ("refused: " ^ msg) true (contains 0)

let suite =
  [ ( "checkpoint",
      [ Alcotest.test_case "session snapshot roundtrips mid-replay" `Quick
          test_session_snapshot_roundtrip;
        Alcotest.test_case "container roundtrip" `Quick test_container_roundtrip;
        Alcotest.test_case "container rejects corruption" `Quick
          test_container_rejects_corruption;
        Alcotest.test_case "container identity check" `Quick test_container_meta_check;
        Alcotest.test_case "save rotation and torn fallback" `Quick
          test_save_rotation_and_torn_fallback ] );
    ( "durable",
      [ Alcotest.test_case "resume after every kill point" `Slow
          test_durable_resume_after_every_kill_point;
        Alcotest.test_case "resume over torn checkpoints" `Quick
          test_durable_resume_with_torn_checkpoint;
        Alcotest.test_case "materialized kill/resume" `Quick
          test_durable_materialized_kill_resume;
        Alcotest.test_case "pooled (jobs=2) kill/resume" `Quick
          test_durable_jobs2_kill_resume;
        Alcotest.test_case "refuses a foreign directory" `Quick
          test_durable_refuses_foreign_directory;
        Alcotest.test_case "foreign collector layout" `Quick
          test_durable_foreign_collector_layout;
        Alcotest.test_case "foreign outcome layout" `Quick
          test_durable_foreign_outcome_layout ] ) ]
