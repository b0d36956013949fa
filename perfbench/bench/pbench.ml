(* The process side of the repository benchmark; perfbench/run.py drives
   it, one fresh process per measured run.

     pbench setup --workload W --dir D            configure, stamp, exit
     pbench run   --workload W --dir D            untraced workload run
     pbench trace --workload W --dir D --seed N   traced per-layer replica

   Every mode prints "entry_ns <t>" (CLOCK_MONOTONIC) as soon as the
   process reaches the workload's entry point, so the driver can time
   set-up from the spawn.  [run] and [trace] write each benchmark's
   [Durable.render] text to D/out/<bench>.txt (plus D/out/report.txt for
   repro) for the driver to compare with the pinned references, and end
   with one "result {...}" JSON line.

   Spans are recorded from outside the program, around the calls into
   each [lib/] layer's public functions; they are kept in memory and
   written to D/spans.tsv at the end. *)

module Workload = Prefix_workloads.Workload
module Registry = Prefix_workloads.Registry
module Harness = Prefix_experiments.Harness
module Durable = Prefix_experiments.Durable
module Report = Prefix_experiments.Report
module Paper_data = Prefix_experiments.Paper_data
module Trace = Prefix_trace.Trace
module Packed = Prefix_trace.Packed
module Stream = Prefix_trace.Stream
module Trace_stats = Prefix_trace.Trace_stats
module Detector = Prefix_hds.Detector
module Hds = Prefix_hds.Hds
module Pipeline = Prefix_core.Pipeline
module Plan = Prefix_core.Plan
module Halo = Prefix_halo.Halo
module Executor = Prefix_runtime.Executor
module Policy = Prefix_runtime.Policy
module Hds_policy = Prefix_runtime.Hds_policy
module Halo_policy = Prefix_runtime.Halo_policy
module Prefix_policy = Prefix_runtime.Prefix_policy
module Block_policy = Prefix_runtime.Block_policy
module Metrics = Prefix_runtime.Metrics
module Clock = Prefix_obs.Clock

let ( / ) = Filename.concat

(* ---- workloads ------------------------------------------------------- *)

type kind = Repro | Stream_huge | Durable_ckpt

type spec = { kind : kind; benches : string list; scale : Workload.scale }

(* [fast] runs one small benchmark through the same code path (the
   driver's self-test); stream-huge then streams at Long scale so the
   pinned Long-scale reference still applies. *)
let spec_of ~fast = function
  | "repro" ->
    { kind = Repro; benches = (if fast then [ "libc" ] else Registry.names); scale = Long }
  | "stream-huge" ->
    { kind = Stream_huge;
      benches = (if fast then [ "libc" ] else [ "mysql"; "roms" ]);
      scale = (if fast then Long else Huge) }
  | "durable" ->
    { kind = Durable_ckpt;
      benches = (if fast then [ "libc" ] else [ "mysql"; "roms"; "povray"; "omnetpp" ]);
      scale = Long }
  | w -> failwith ("unknown workload " ^ w)

(* Harness configuration for the workload's untraced run; everything at
   --jobs 1, so no worker domains and no prefetch pool. *)
let configure spec =
  Harness.set_jobs 1;
  Harness.set_eval_scale spec.scale;
  match spec.kind with
  | Repro -> ()
  | Stream_huge ->
    Harness.set_streaming true;
    Harness.set_stream_container `Columnar;
    Harness.set_decode_once true
  | Durable_ckpt -> Harness.set_streaming true

let durable_cfg spec ~dir =
  { (Durable.default ~dir) with
    Durable.every = 1;
    throttle_ms = 0.;
    scale = spec.scale;
    streaming = true }

let seconds_since t0 = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
    Array.fold_left (fun acc e -> acc + dir_bytes (path / e)) 0 (Sys.readdir path)
  | { Unix.st_kind = S_REG; st_size; _ } -> st_size
  | _ -> 0

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A durable run into a directory that already holds checkpoints would
   resume from its .done files and time a no-op. *)
let require_empty dir =
  if Sys.file_exists dir && Sys.readdir dir <> [||] then
    failwith (dir ^ " is not empty: refusing to time a resumed durable run")

(* What the driver checks of one benchmark: its report text, and its
   best-PreFix delta beside the paper's (the driver compares signs). *)
type summary = { name : string; text : string; sign : string; metrics : Metrics.t list }

let summarize (r : Harness.result) =
  let best, _ = Harness.best_prefix r in
  { name = r.wl.name;
    text = Durable.render r;
    sign =
      Printf.sprintf "%s %.6f %.6f\n" r.wl.name (Harness.time_delta r best)
        (Paper_data.find_table3 r.wl.name).best_pct;
    metrics =
      List.map (fun (p : Harness.policy_run) -> p.metrics)
        [ r.baseline; r.hds; r.halo; r.block; r.prefix_hot; r.prefix_hds; r.prefix_hdshot ] }

let write_outputs ~out summaries report =
  Prefix_util.Fsio.mkdir_p out;
  List.iter (fun s -> write_file (out / (s.name ^ ".txt")) s.text) summaries;
  Option.iter (write_file (out / "report.txt")) report;
  write_file (out / "signs.txt") (String.concat "" (List.map (fun s -> s.sign) summaries))

(* ---- spans ----------------------------------------------------------- *)

type span = { key : string; bench : string; depth : int; start_ns : int64; stop_ns : int64; words : float }

let spans : span list ref = ref []
let depth = ref 0
let current_bench = ref ""

let timed key f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let d = !depth in
  depth := d + 1;
  let finish () =
    depth := d;
    spans :=
      { key; bench = !current_bench; depth = d; start_ns = t0; stop_ns = Clock.now_ns ();
        words = Gc.minor_words () -. w0 }
      :: !spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let dur s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

let sum_by p f = List.fold_left (fun acc s -> if p s then acc +. f s else acc) 0. !spans
let time_of key = sum_by (fun s -> s.key = key) dur
let words_of p = sum_by p (fun s -> s.words) /. 1e6
let starts_with pre s = String.starts_with ~prefix:pre s.key

let write_spans path =
  let t0 = match List.rev !spans with [] -> 0L | s :: _ -> s.start_ns in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "key\tbench\tdepth\tstart_s\tdur_s\tminor_words\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%s\t%s\t%d\t%.6f\t%.6f\t%.0f\n" s.key s.bench s.depth
            (Int64.to_float (Int64.sub s.start_ns t0) /. 1e9)
            (dur s) s.words)
        (List.rev !spans))

(* ---- traced replica of Harness.run_benchmark ------------------------- *)

let policy_keys =
  [ "baseline"; "hds"; "halo"; "block"; "prefix_hot"; "prefix_hds"; "prefix_hdshot" ]

(* Counters the spans cannot give. *)
let events = ref 0
let replayed_events = ref 0
let streams = ref 0
let encoded_bytes = ref 0
let encoded_events = ref 0

(* One pass over [stream] feeding every (key, session) pair each segment:
   the seven-session fan-out when [sessions] has seven entries, one
   policy's streamed replay when it has one.  Time inside the pass but
   outside the sessions is the stream's producer: decode or generation. *)
let replay_pass ~producer stream sessions =
  let t0 = Clock.now_ns () in
  let w0 = Gc.minor_words () in
  Stream.iter_segments stream (fun ~base seg ->
      List.iter (fun (key, st) -> timed key (fun () -> Executor.replay_segment st ~base seg)) sessions);
  let whole = seconds_since t0 in
  let inner = List.filter (fun s -> Int64.compare s.start_ns t0 >= 0) !spans in
  let replay = List.fold_left (fun acc s -> acc +. dur s) 0. inner in
  let replay_words = List.fold_left (fun acc s -> acc +. s.words) 0. inner in
  (* The producer's share, recorded as a leaf so coverage counts it once. *)
  spans :=
    { key = producer; bench = !current_bench; depth = !depth; start_ns = t0;
      stop_ns = Int64.add t0 (Int64.of_float ((whole -. replay) *. 1e9));
      words = Gc.minor_words () -. w0 -. replay_words }
    :: !spans

let replica spec ~seed (wl : Workload.t) =
  current_bench := wl.name;
  let det = Harness.pipeline_config.detector in
  let costs = Harness.exec_config.costs in
  let prof = timed "workloads.generate" (fun () -> wl.generate ~scale:Profiling ~seed ()) in
  let gen_long () = Workload.generate_stream wl ~scale:spec.scale ~seed:(seed + 1) () in
  (* The evaluation trace: materialized and packed (repro), spooled into
     a columnar container (stream-huge) or re-generated per pass
     (durable). *)
  let packed, long_stream =
    match spec.kind with
    | Repro ->
      let long = timed "workloads.generate" (fun () -> wl.generate ~scale:spec.scale ~seed:(seed + 1) ()) in
      let p = timed "trace.pack" (fun () -> Packed.of_trace long) in
      (Some p, fun () -> Stream.of_packed p)
    | Stream_huge ->
      let path = Filename.temp_file ("pbench-" ^ wl.name ^ "-") ".pfxt" in
      timed "trace.encode" (fun () -> Stream.to_columnar_file (gen_long ()) path);
      encoded_bytes := !encoded_bytes + (Unix.stat path).st_size;
      (None, fun () -> Stream.of_binary_file path)
    | Durable_ckpt -> (None, gen_long)
  in
  let pstats = timed "trace.analyze" (fun () -> Trace_stats.analyze prof) in
  let lstats =
    timed "trace.analyze" (fun () ->
        match packed with
        | Some p -> Trace_stats.analyze_packed p
        | None -> Trace_stats.analyze_stream (long_stream ()))
  in
  let long_events = Trace_stats.trace_length lstats in
  events := !events + Trace.length prof + long_events;
  if spec.kind = Stream_huge then encoded_events := !encoded_events + long_events;
  let long_hot_set = Hashtbl.create 1024 in
  timed "trace.analyze" (fun () ->
      List.iter
        (fun (o : Trace_stats.obj_info) -> Hashtbl.replace long_hot_set o.obj ())
        (Trace_stats.hot_objects ~coverage:Harness.pipeline_config.coverage lstats));
  (* Probes: the hot sequence and the detection that every plan below
     repeats internally, timed once on their own. *)
  ignore (timed "hds.hot_sequence" (fun () -> Detector.hot_sequence pstats prof));
  let ohds = timed "hds.detect" (fun () -> Detector.detect_with_stats ~config:det pstats prof) in
  streams := !streams + List.length ohds;
  let long_ohds = timed "hds.classify" (fun () -> Detector.detect_stream ~config:det lstats (long_stream ())) in
  let long_hds_set = Hashtbl.create 1024 in
  List.iter (fun h -> List.iter (fun o -> Hashtbl.replace long_hds_set o ()) (Hds.objs h)) long_ohds;
  let cls = { Policy.is_hot = Hashtbl.mem long_hot_set; is_hds = Hashtbl.mem long_hds_set } in
  let plan_of variant =
    timed "core.plan" (fun () ->
        Pipeline.plan_with_stats ~config:(Harness.effective_pipeline_config ()) ~variant pstats prof)
  in
  let plan_hot = plan_of Plan.Hot in
  let plan_hds = plan_of Plan.Hds in
  let plan_hdshot = plan_of Plan.HdsHot in
  let hds_plan = timed "runtime.hds_plan" (fun () -> Hds_policy.plan_of_trace ~detector:det pstats prof) in
  let halo_plan = timed "halo.plan" (fun () -> Halo.plan_of_trace pstats prof) in
  let block_plan = timed "runtime.block_plan" (fun () -> Block_policy.plan_of_trace prof) in
  let policies =
    List.combine policy_keys
      [ (fun heap -> Policy.baseline costs heap);
        (fun heap -> Hds_policy.policy costs heap hds_plan cls);
        (fun heap -> Halo_policy.policy costs heap halo_plan cls);
        (fun heap -> Block_policy.policy costs heap block_plan cls);
        (fun heap -> Prefix_policy.policy costs heap plan_hot cls);
        (fun heap -> Prefix_policy.policy costs heap plan_hds cls);
        (fun heap -> Prefix_policy.policy costs heap plan_hdshot cls) ]
  in
  let session (name, policy) =
    let key = "runtime.replay." ^ name in
    ( key,
      timed key (fun () ->
          let heap = Prefix_heap.Allocator.create () in
          let p = policy heap in
          Executor.session_create ~config:Harness.exec_config ~mode:Policy.Strict
            ~heatmap_objs:None ~attribute:false ~heap ~p) )
  in
  let finish (key, st) = timed key (fun () -> (Executor.session_finish st).Executor.metrics) in
  let run plan metrics = { Harness.metrics; plan } in
  let outcomes =
    match (spec.kind, packed) with
    | Repro, Some p ->
      List.map
        (fun (name, policy) ->
          timed ("runtime.replay." ^ name) (fun () ->
              (Executor.run_packed ~config:Harness.exec_config ~policy p).metrics))
        policies
    | Stream_huge, _ ->
      (* Decode once, replay seven times. *)
      let sessions = List.map session policies in
      replay_pass ~producer:"trace.decode" (long_stream ()) sessions;
      List.map finish sessions
    | _ ->
      (* Per-policy replays, each re-running the generator. *)
      List.map
        (fun pol ->
          let s = session pol in
          replay_pass ~producer:"workloads.generate" (long_stream ()) [ s ];
          finish s)
        policies
  in
  replayed_events := !replayed_events + (7 * long_events);
  match outcomes with
  | [ baseline; hds; halo; block; p_hot; p_hds; p_hdshot ] ->
    summarize
      { Harness.wl;
        profiling_trace = prof;
        long_source =
          (match packed with Some p -> Materialized p | None -> Streamed long_stream);
        long_events;
        profiling_stats = pstats;
        long_stats = lstats;
        baseline = run None baseline;
        hds = run None hds;
        halo = run None halo;
        block = run None block;
        prefix_hot = run (Some plan_hot) p_hot;
        prefix_hds = run (Some plan_hds) p_hds;
        prefix_hdshot = run (Some plan_hdshot) p_hdshot;
        long_hot_set;
        long_hds_set }
  | _ -> assert false

(* ---- modes ----------------------------------------------------------- *)

let json_fields fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let num f = Printf.sprintf "%.9g" f

let full_repro spec = spec.kind = Repro && spec.benches = Registry.names

let harness_results spec =
  if full_repro spec then Harness.run_all () else Harness.run_many spec.benches

let mode_run spec ~dir =
  let t0 = Clock.now_ns () in
  let results =
    match spec.kind with
    | Repro | Stream_huge -> harness_results spec
    | Durable_ckpt ->
      let ckpt = dir / "ckpt" in
      require_empty ckpt;
      let results = Durable.run_many (durable_cfg spec ~dir:ckpt) spec.benches in
      (match Durable.check ~dir:ckpt with
      | Ok _ -> results
      | Error report -> failwith ("Durable.check failed:\n" ^ report))
  in
  let report = if full_repro spec then Some (Report.run_all ()) else None in
  let wall = seconds_since t0 in
  write_outputs ~out:(dir / "out") (List.map summarize results) report;
  print_endline
    ("result " ^ json_fields [ ("wall_s", num wall); ("disk_bytes", string_of_int (dir_bytes dir)) ])

(* Phases run in this order, each after a compaction so none inherits a
   heap grown by the one before: the traced replica at [seed] (the
   reported spans); the replica at the harness seed when [seed] differs
   (checked, not reported); the untraced harness, whose results the
   checked replica must equal; for repro the experiments, off the
   harness's memo.  The replica's report texts go to D/out, where the
   driver compares them with the pinned references. *)
let mode_trace spec ~dir ~seed =
  let benches = List.map Registry.find spec.benches in
  let replicate seed =
    Gc.compact ();
    let t0 = Clock.now_ns () in
    let summaries = List.map (replica spec ~seed) benches in
    current_bench := "";
    (summaries, seconds_since t0)
  in
  let summaries, replica_s = replicate seed in
  let layer_metrics =
    let plan_s = time_of "core.plan" in
    let detect_s = time_of "hds.detect" in
    let replay_s = sum_by (fun s -> starts_with "runtime.replay." s) dur in
    [ ("workloads.generate_s", time_of "workloads.generate");
      ("workloads.events", float_of_int !events);
      ("workloads.alloc_mw", words_of (fun s -> s.key = "workloads.generate"));
      ("trace.pack_s", time_of "trace.pack");
      ("trace.analyze_s", time_of "trace.analyze");
      ("trace.encode_s", time_of "trace.encode");
      ( "trace.bytes_per_event",
        if !encoded_events = 0 then 0. else float_of_int !encoded_bytes /. float_of_int !encoded_events );
      ("trace.decode_s", time_of "trace.decode");
      ("hds.hot_sequence_s", time_of "hds.hot_sequence");
      ("hds.detect_s", detect_s);
      ("hds.classify_s", time_of "hds.classify");
      ("hds.streams", float_of_int !streams);
      ("hds.alloc_mw", words_of (fun s -> starts_with "hds." s));
      ("core.plan_s", plan_s);
      (* Each of the three plans repeats the profiling-trace detection. *)
      ("core.plan_self_s", plan_s -. (3. *. detect_s));
      ("halo.plan_s", time_of "halo.plan");
      ("runtime.hds_plan_s", time_of "runtime.hds_plan");
      ("runtime.block_plan_s", time_of "runtime.block_plan") ]
    @ List.map (fun k -> ("runtime.replay." ^ k ^ "_s", time_of ("runtime.replay." ^ k))) policy_keys
    @ [ ("runtime.replay_events_per_s", float_of_int !replayed_events /. replay_s);
        ("runtime.alloc_mw", words_of (fun s -> starts_with "runtime." s)) ]
  in
  let replica_top = sum_by (fun s -> s.depth = 0) dur in
  let replica_spans = !spans in
  let checked, checked_s =
    if seed = Harness.seed then (summaries, replica_s)
    else replicate Harness.seed
  in
  spans := [];
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let untraced =
    match spec.kind with
    | Durable_ckpt -> List.map Harness.run_benchmark benches
    | Repro | Stream_huge -> harness_results spec
  in
  let untraced_s = seconds_since t0 in
  let mismatches =
    List.filter_map
      (fun (s, r) -> if s.metrics = (summarize r).metrics then None else Some s.name)
      (List.combine checked untraced)
  in
  let durable_metrics =
    match spec.kind with
    | Durable_ckpt ->
      let ckpt = dir / "ckpt" in
      require_empty ckpt;
      Gc.compact ();
      let t1 = Clock.now_ns () in
      ignore (Durable.run_many (durable_cfg spec ~dir:ckpt) spec.benches);
      let ckpt_s = seconds_since t1 in
      let t2 = Clock.now_ns () in
      let ok = Result.is_ok (Durable.check ~dir:ckpt) in
      let check_s = seconds_since t2 in
      if not ok then failwith "Durable.check failed";
      [ ("durable.ckpt_bytes", float_of_int (dir_bytes ckpt)); ("durable.check_s", check_s);
        ("durable.overhead_ratio", ckpt_s /. untraced_s) ]
    | Repro | Stream_huge ->
      [ ("durable.ckpt_bytes", 0.); ("durable.check_s", 0.); ("durable.overhead_ratio", 0.) ]
  in
  let report =
    if full_repro spec then
      Some
        (String.concat "\n"
           (List.map (fun (e : Report.experiment) -> timed ("experiments." ^ e.id) e.run) Report.all))
    else None
  in
  let experiments_s = sum_by (fun s -> starts_with "experiments." s) dur in
  write_outputs ~out:(dir / "out") checked report;
  spans := !spans @ replica_spans;
  write_spans (dir / "spans.tsv");
  let traced_s = replica_s +. experiments_s in
  let metrics =
    layer_metrics @ durable_metrics
    @ List.map
        (fun (e : Report.experiment) -> ("experiments." ^ e.id ^ "_s", time_of ("experiments." ^ e.id)))
        Report.all
    @ [ ("trace_run.coverage", (replica_top +. experiments_s) /. traced_s);
        ("trace_run.wall_s", traced_s);
        ("trace_run.untraced_s", untraced_s +. experiments_s);
        ("trace_run.overhead_ratio", (checked_s +. experiments_s) /. (untraced_s +. experiments_s)) ]
  in
  print_endline
    ("result "
    ^ json_fields
        [ ("replica_mismatches", "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") mismatches) ^ "]");
          ("metrics", json_fields (List.map (fun (k, v) -> (k, num v)) metrics)) ])

let () =
  let mode = ref "" and workload = ref "" and dir = ref "" and seed = ref Harness.seed in
  let fast = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W  repro | stream-huge | durable");
      ("--dir", Arg.Set_string dir, "D  private run directory (must exist)");
      ("--seed", Arg.Set_int seed, "N  traced replica seed (default: the harness seed)");
      ("--fast", Arg.Set fast, " one small benchmark through the same code path") ]
  in
  Arg.parse spec (fun m -> mode := m) "pbench (setup|run|trace) --workload W --dir D [--seed N] [--fast]";
  let s = spec_of ~fast:!fast !workload in
  configure s;
  Printf.printf "entry_ns %Ld\n%!" (Clock.now_ns ());
  match !mode with
  | "setup" -> ()
  | "run" -> mode_run s ~dir:!dir
  | "trace" -> mode_trace s ~dir:!dir ~seed:!seed
  | m -> failwith ("unknown mode " ^ m)
