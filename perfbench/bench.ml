(* The repository's end-to-end benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1

   Three workloads, each built from the workload seed alone:

   - label-swp: [Labeling.collect ~swp:true] over the FAST suite at a
     reduced scale, on a pool as wide as the machine.  Almost all of its
     time is modulo-scheduling attempts and respill reschedules, and it is
     the only workload where the work-stealing pool matters.
   - train-noswp: [Train.run ~swp:false ~model:Best] at jobs 1, no
     journal: the paper's offline pipeline end to end.  No modulo
     scheduling and no pool, so it is the control for both.
   - serve-closed: an in-process [Serve] over a checked-in artifact,
     replayed by two closed-loop client connections.  The only workload
     through [Wire], the batcher and [Predict_service]; it compiles
     nothing, so it is the control for every sweep change.

   Both label workloads sweep the FAST suite (suite seed 2005, noise seed
   42) at a reduced scale, in suite order, on every seed: their labels,
   datasets and models are the same on every run, so their timings
   compare across runs.  At these scales a different suite or noise seed
   moves the wall time by ~15% and the cross-validation accuracy by ~30%,
   and a seeded benchmark order moves the pool's tail, and with it the
   sweep's wall time, by ~12%.  On these workloads the seed only picks
   the loops the reference simulator re-checks.  The serve workload draws
   its loops and its request order from the seed.

   With --trace 0 the run is timed with tracing off and prints the
   end-to-end metrics.  With --trace 1 it runs the same inputs again
   sequentially through the layers' public entry points, one span per
   call, and prints each layer's self time and counters; the spans are
   written as Chrome trace-event JSON under .bench_out/.

   The output is one [metric NAME VALUE SAMPLES] line per metric measured,
   then [result ATTEMPTED FAILED].  run.py checks the names against
   BENCHMARK.json, which holds their units, and prints the JSON result. *)

module Spans = Perfbench_spans.Spans

let now = Spans.now
let default_seed = 42
let suite_seed = Config.fast.Config.seed
let label_scale = 0.03
let train_scale = 0.05
let serve_distinct = 256
let serve_requests = 2048
let serve_clients = 2
let reference_tasks = 4
let artifact_path = "test/fixtures/golden_svm.artifact"
let golden_predictions_path = "test/fixtures/golden_svm_predictions.txt"
let golden_digests_path = "perfbench/golden.txt"
let trace_dir = ".bench_out"

(* --- command line ------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let workloads = [ "label-swp"; "train-noswp"; "serve-closed" ]

let parse_args () =
  let usage () =
    prerr_endline
      "usage: bench --workload label-swp|train-noswp|serve-closed --seed N --seconds S \
       --trace 0|1";
    exit 2
  in
  let rec go acc = function
    | "--workload" :: w :: rest when List.mem w workloads -> go { acc with workload = w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with Some n -> go { acc with seed = n } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some x when x > 0.0 -> go { acc with seconds = x } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | [] -> acc
    | _ -> usage ()
  in
  let a =
    go
      { workload = ""; seed = default_seed; seconds = 10.0; trace = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if a.workload = "" then usage () else a

(* --- measurement helpers ---------------------------------------------- *)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Live major heap after a full collection.  Taken right after a unit of
   work, while the program's caches still hold what it filled them with,
   it measures what the work keeps resident; unlike the process's peak
   RSS it does not depend on when the collector happened to run. *)
let live_heap_mb () =
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let jobs = Domain.recommended_domain_count ()

(* Repeat [f] until [seconds] have passed since [start], at least once. *)
let repeat_for ~start ~seconds f =
  let rec go acc =
    let acc = f () :: acc in
    if now () -. start < seconds then go acc else List.rev acc
  in
  go []

(* Cold caches and a compacted heap before every repetition, so each one
   starts from the same state. *)
let reset_caches () =
  Compile_cache.clear Compile_cache.global;
  Deps_memo.clear Deps_memo.global;
  Gc.compact ()

(* --- correctness tally -------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "bench: check failed: %s\n%!" what
  end

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

let pairs_of_file path =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ k; v ] -> Some (k, v)
      | _ -> None)
    (read_lines path)

(* The label workloads' outputs do not depend on the seed, so one golden
   digest per workload checks every run. *)
let check_golden t ~workload digest =
  match List.assoc_opt workload (pairs_of_file golden_digests_path) with
  | Some g -> check t (g = digest) (Printf.sprintf "%s digest %s, golden %s" workload digest g)
  | None -> check t false (Printf.sprintf "no golden digest for %s" workload)

(* --- output ------------------------------------------------------------- *)

(* Metrics are [(name, (value, samples))]. *)
let emit t metrics =
  List.iter
    (fun (name, (value, samples)) ->
      Printf.printf "metric %s %s %d\n" name
        (if Float.is_finite value then Printf.sprintf "%.17g" value else "0")
        samples)
    metrics;
  Printf.printf "result %d %d\n%!" t.attempted t.failed

(* One repetition of a workload's unit of work. *)
type sample = {
  wall : float;
  rate : float;  (** requests per second *)
  p50 : float;  (** median request latency, us *)
  heap : float;  (** {!live_heap_mb} right after the work *)
}

let end_to_end t ~setups ~samples ~cv_accuracy =
  let ok_ratio = 1.0 -. (float_of_int t.failed /. float_of_int (max 1 t.attempted)) in
  let med f = (median (List.map f samples), List.length samples) in
  List.iter (fun s -> Printf.eprintf "bench: wall %.3fs heap %.1fMB\n%!" s.wall s.heap) samples;
  [
    ("setup_s", (median setups, List.length setups));
    ("wall_s", med (fun s -> s.wall));
    ("requests_per_s", med (fun s -> s.rate));
    ("p50_us", med (fun s -> s.p50));
    ("live_heap_mb", med (fun s -> s.heap));
    ("cv_accuracy", (cv_accuracy, 1));
    ("ok_ratio", (ok_ratio, max 1 t.attempted));
  ]

let stat stats name =
  match List.assoc_opt name stats with
  | Some s -> s
  | None -> { Spans.count = 0; inclusive = 0.0; self = 0.0 }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Root check and trace file, shared by every traced run.  The root span is
   named after the workload; its self time is the time spent outside every
   layer span, reported as a share of the root as the trace's coverage. *)
let finish_trace t ~workload ~seed tr =
  let spans = Spans.spans tr in
  (match Spans.check_root spans with
  | Ok _ -> check t true ""
  | Error e -> check t false ("trace: " ^ e));
  if not (Sys.file_exists trace_dir) then Unix.mkdir trace_dir 0o755;
  let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Spans.to_chrome spans));
  Printf.eprintf "bench: %d spans written to %s\n%!" (List.length spans) path;
  let stats = Spans.by_name spans in
  let root = stat stats workload in
  (stats, ("trace.root_self_ratio", (root.Spans.self /. root.Spans.inclusive, 1)))

let self_s stats name = let s = stat stats name in (s.Spans.self, s.Spans.count)
let mean_us stats name =
  let s = stat stats name in
  ((if s.Spans.count = 0 then 0.0 else s.Spans.inclusive /. float_of_int s.Spans.count *. 1e6),
   s.Spans.count)

(* --- the label sweep, timed and traced --------------------------------- *)

let label_config ~scale ~jobs = { Config.fast with Config.scale; jobs }

let label_digest (labeled : Labeling.labeled array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (l : Labeling.labeled) ->
      Buffer.add_string b l.Labeling.bench;
      Buffer.add_char b '/';
      Buffer.add_string b l.Labeling.loop.Loop.name;
      Array.iter (fun c -> Buffer.add_string b (Printf.sprintf ",%d" c)) l.Labeling.cycles;
      Buffer.add_char b ';')
    labeled;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One loop's sweep through the public entry points, in [Measure.sweep]'s
   order, with a span around every call into a layer.  The schedule and
   regalloc passes are rebuilt here from the schedulers and
   [Regalloc.allocate_from], so a respill reschedule is billed to the
   scheduler it calls (under a [resched] span) and not to [regalloc]. *)
let sweep_passes tr =
  let sched (st : Pipeline_state.state) l =
    let machine = st.Pipeline_state.machine and memo = st.Pipeline_state.deps_memo in
    let list_sched () =
      Spans.with_span tr "list_sched" (fun () -> List_sched.schedule ~memo machine l)
    in
    if st.Pipeline_state.swp then
      match
        Spans.with_span tr "modulo_sched"
          ~rename:(function Some _ -> "modulo_sched.ok" | None -> "modulo_sched.fail")
          (fun () -> Modulo_sched.schedule ~memo machine l)
      with
      | Some s -> s
      | None -> list_sched ()
    else list_sched ()
  in
  let unrolled (st : Pipeline_state.state) = Option.get st.Pipeline_state.unrolled in
  let schedule (st : Pipeline_state.state) =
    let u = unrolled st in
    let kernel_sched = sched st u.Unroll.kernel in
    let remainder_sched = Option.map (sched st) u.Unroll.remainder in
    ({ st with Pipeline_state.kernel_sched = Some kernel_sched; remainder_sched }, [])
  in
  let regalloc (st : Pipeline_state.state) =
    let resched l = Spans.with_span tr "resched" (fun () -> sched st l) in
    let kernel_sched =
      Regalloc.allocate_from ~sched:resched (Option.get st.Pipeline_state.kernel_sched)
    in
    let remainder_sched =
      Option.map (Regalloc.allocate_from ~sched:resched) st.Pipeline_state.remainder_sched
    in
    let spills =
      kernel_sched.Schedule.spills
      + match remainder_sched with Some s -> s.Schedule.spills | None -> 0
    in
    ( { st with Pipeline_state.kernel_sched = Some kernel_sched; remainder_sched },
      [ ("spills", spills) ] )
  in
  List.map
    (fun (p : Pipeline.pass) ->
      let transform =
        match p.Pipeline.pass_name with
        | "schedule" -> schedule
        | "regalloc" -> regalloc
        | _ -> p.Pipeline.transform
      in
      {
        p with
        Pipeline.transform =
          (fun st -> Spans.with_span tr p.Pipeline.pass_name (fun () -> transform st));
      })
    Pipeline.default_passes

let traced_sweep tr tel (config : Config.t) ~swp tasks =
  let machine = config.Config.machine and max_sim_iters = config.Config.max_sim_iters in
  let passes = sweep_passes tr in
  Array.map
    (fun (bench, i, loop, weight) ->
      Spans.with_span tr "label" (fun () ->
          let rng = Rng.derive config.Config.noise_seed bench i in
          let cycles =
            Array.init Unroll.max_factor (fun k ->
                let factor = k + 1 in
                ignore
                  (Spans.with_span tr "compile_cache.key" (fun () ->
                       Compile_cache.key ~machine ~swp ~factor loop));
                let st =
                  Spans.with_span tr "pipeline" (fun () ->
                      Pipeline.run ~telemetry:tel ~passes
                        (Pipeline_state.init machine ~swp loop factor))
                in
                let exe = Pipeline_state.executable_exn st in
                let state =
                  Spans.with_span tr "sim" (fun () ->
                      let state = Simulator.create_state machine in
                      ignore (Simulator.run ~max_sim_iters state exe);
                      state)
                in
                let exact =
                  Spans.with_span tr "sim" (fun () -> Simulator.run ~max_sim_iters state exe)
                in
                Measure.noisy_median ~rng ~noise:config.Config.noise ~runs:config.Config.runs
                  (fun () -> exact))
          in
          { Labeling.bench; loop; weight; cycles }))
    tasks

(* Recompile a seeded sample of the workload's loops at every factor and
   simulate each executable with both the simulator and the frozen
   reference simulator: the cycles must agree, and, when the labels are at
   hand, the noisy medians replayed from the loop's RNG over the
   reference cycles must equal the labels. *)
let reference_check t (config : Config.t) ~swp ~seed tasks
    (labeled : Labeling.labeled array option) =
  let machine = config.Config.machine and max_sim_iters = config.Config.max_sim_iters in
  let order = Array.init (Array.length tasks) Fun.id in
  Rng.shuffle (Rng.create seed) order;
  for s = 0 to min reference_tasks (Array.length tasks) - 1 do
    let ti = order.(s) in
    let bench, i, loop, _ = tasks.(ti) in
    let what factor = Printf.sprintf "%s/%s u%d" bench loop.Loop.name factor in
    let rng = Rng.derive config.Config.noise_seed bench i in
    for factor = 1 to Unroll.max_factor do
      let exe =
        Pipeline_state.executable_exn
          (Pipeline.run ~telemetry:(Telemetry.create ())
             (Pipeline_state.init machine ~swp loop factor))
      in
      let fast =
        let st = Simulator.create_state machine in
        ignore (Simulator.run ~max_sim_iters st exe);
        Simulator.run ~max_sim_iters st exe
      in
      let reference =
        let st = Sim_reference.create_state machine in
        ignore (Sim_reference.run ~max_sim_iters st exe);
        Sim_reference.run ~max_sim_iters st exe
      in
      check t (fast = reference)
        (Printf.sprintf "%s: simulator %d cycles, reference %d" (what factor) fast reference);
      match labeled with
      | None -> ()
      | Some labeled ->
        let replayed =
          Measure.noisy_median ~rng ~noise:config.Config.noise ~runs:config.Config.runs
            (fun () -> reference)
        in
        let label = labeled.(ti).Labeling.cycles.(factor - 1) in
        check t (replayed = label)
          (Printf.sprintf "%s: replayed label %d, sweep %d" (what factor) replayed label)
    done
  done

let check_same_labels t ~what (a : Labeling.labeled array) (b : Labeling.labeled array) =
  check t (Array.length a = Array.length b) (what ^ ": loop counts differ");
  Array.iteri
    (fun i (x : Labeling.labeled) ->
      if i < Array.length b then
        Array.iteri
          (fun k c ->
            check t
              (c = b.(i).Labeling.cycles.(k)
              && x.Labeling.loop.Loop.name = b.(i).Labeling.loop.Loop.name)
              (Printf.sprintf "%s: %s u%d" what x.Labeling.loop.Loop.name (k + 1)))
          x.Labeling.cycles)
    a

let nn_loo_accuracy (config : Config.t) labeled =
  let ds = Labeling.to_dataset config labeled in
  if Dataset.size ds < 2 then 0.0
  else begin
    let scaled = Scale.apply (Scale.fit ds) ds in
    let model =
      Knn.train ~radius:config.Config.knn_radius ~n_classes:scaled.Dataset.n_classes
        (Dataset.points scaled)
    in
    Metrics.accuracy ~pred:(Knn.loo_predictions model) ~truth:(Dataset.labels scaled)
  end

let fast_suite ~scale = Suite.full ~scale ~seed:suite_seed

(* Set-up is generating the suite, timed once per repetition. *)
let timed_suite setups ~scale =
  let t0 = now () in
  let suite = fast_suite ~scale in
  setups := (now () -. t0) :: !setups;
  suite

let label_timed args =
  let t = tally () in
  let config = label_config ~scale:label_scale ~jobs in
  let start = now () in
  ignore (Parallel.map ~jobs Fun.id (Array.init (4 * jobs) Fun.id));
  let setups = ref [] in
  let tasks = Labeling.tasks (fast_suite ~scale:label_scale) in
  let first = ref None in
  let samples =
    repeat_for ~start ~seconds:args.seconds (fun () ->
        let suite = timed_suite setups ~scale:label_scale in
        reset_caches ();
        (* Per-loop latency: the time since the same domain last finished a
           loop (progress callbacks are serialised by [collect]). *)
        let last = Hashtbl.create 4 and latencies = ref [] in
        let t0 = now () in
        let progress ~done_:_ ~total:_ =
          let tn = now () in
          let d = (Domain.self () :> int) in
          let prev = Option.value (Hashtbl.find_opt last d) ~default:t0 in
          latencies := ((tn -. prev) *. 1e6) :: !latencies;
          Hashtbl.replace last d tn
        in
        let labeled = Labeling.collect ~progress ~jobs config ~swp:true suite in
        let wall = now () -. t0 in
        let heap = live_heap_mb () in
        (match !first with
        | None -> first := Some labeled
        | Some f -> check_same_labels t ~what:"repeat sweep" f labeled);
        {
          wall;
          rate = float_of_int (Array.length tasks) /. wall;
          p50 = median !latencies;
          heap;
        })
  in
  let first = Option.get !first in
  reference_check t config ~swp:true ~seed:args.seed tasks (Some first);
  check_golden t ~workload:"label-swp" (label_digest first);
  end_to_end t ~setups:!setups ~samples ~cv_accuracy:(nn_loo_accuracy config first) |> emit t

(* Counters from [Telemetry.global] over a traced sweep. *)
let sweep_counters () =
  let c pass name = Telemetry.counter Telemetry.global ~pass name in
  let simulated = c "simulator" "entries-simulated" and skipped = c "simulator" "entries-skipped" in
  [
    ("deps_memo.hits", (float_of_int (c "deps-memo" "hits"), 1));
    ("deps_memo.misses", (float_of_int (c "deps-memo" "misses"), 1));
    ("sim.iters_simulated", (float_of_int (c "simulator" "iters-simulated"), 1));
    ("sim.iters_fast_forwarded", (float_of_int (c "simulator" "iters-fast-forwarded"), 1));
    ("sim.entries_skipped_ratio", (ratio skipped (simulated + skipped), simulated + skipped));
  ]

let sweep_layers stats tel =
  let count name = (stat stats name).Spans.count in
  let incl name = (stat stats name).Spans.inclusive in
  let modulo = count "modulo_sched.ok" + count "modulo_sched.fail" in
  let tc pass name = float_of_int (Telemetry.counter tel ~pass name) in
  [
    ("suite.s", self_s stats "suite");
    ("unroll.s", self_s stats "unroll");
    ("rle.s", self_s stats "rle");
    ("unroll.kernel_ops", (tc "unroll" "kernel-ops", count "unroll"));
    ("rle.loads_eliminated", (tc "rle" "loads-eliminated", count "rle"));
    ("list_sched.calls", (float_of_int (count "list_sched"), 1));
    ("list_sched.s", self_s stats "list_sched");
    ("modulo_sched.calls", (float_of_int modulo, 1));
    ("modulo_sched.ok_ratio", (ratio (count "modulo_sched.ok") modulo, modulo));
    ("modulo_sched.s", (incl "modulo_sched.ok" +. incl "modulo_sched.fail", modulo));
    ("modulo_sched.failed_s", (incl "modulo_sched.fail", count "modulo_sched.fail"));
    ("regalloc.self_s", self_s stats "regalloc");
    ("regalloc.reschedules", (float_of_int (count "resched"), 1));
    ("regalloc.resched_s", (incl "resched", count "resched"));
    ("regalloc.spills", (tc "regalloc" "spills", count "regalloc"));
    ("pipeline.compiles", (float_of_int (count "pipeline"), 1));
    ("pipeline.s", self_s stats "pipeline");
    ("assemble.s", self_s stats "assemble");
    ("compile_cache.key_us", mean_us stats "compile_cache.key");
    ("sim.runs", (float_of_int (count "sim"), 1));
    ("sim.s", self_s stats "sim");
    ("label.s", self_s stats "label");
  ]

(* The workload's own run, untraced: its output is what the traced run
   must reproduce, and the compile cache's and the pool's counters come
   from it. *)
let untraced_run ~jobs f =
  reset_caches ();
  Telemetry.reset Telemetry.global;
  let c0 = cpu_seconds () and t0 = now () in
  let r = f () in
  let wall = now () -. t0 and cpu = cpu_seconds () -. c0 in
  let count n = (float_of_int n, 1) in
  ( r,
    [
      ("compile_cache.hits", count (Compile_cache.hits Compile_cache.global));
      ("compile_cache.misses", count (Compile_cache.misses Compile_cache.global));
      ("parallel.busy_ratio", (cpu /. (wall *. float_of_int jobs), 1));
      ("parallel.steals", count (Telemetry.counter Telemetry.global ~pass:"parallel" "steals"));
    ] )

(* A sequential traced run and its untraced twin: the same code with the
   recorder off.  Each gets its own telemetry sink.  Returns the traced
   result, recorder and sink, and the overhead and [Telemetry.global]
   counters of the traced run. *)
let traced_and_twin run =
  reset_caches ();
  let t0 = now () in
  ignore (run (Spans.create ~enabled:false ()) (Telemetry.create ()));
  let untraced = now () -. t0 in
  reset_caches ();
  Telemetry.reset Telemetry.global;
  let tr = Spans.create () and tel = Telemetry.create () in
  let t1 = now () in
  let r = run tr tel in
  let traced = now () -. t1 in
  (r, tr, tel, ("trace.overhead_s", (traced -. untraced, 1)) :: sweep_counters ())

let label_traced args =
  let t = tally () in
  let config = label_config ~scale:label_scale ~jobs in
  let timed, untraced =
    untraced_run ~jobs (fun () ->
        Labeling.collect ~jobs config ~swp:true (fast_suite ~scale:label_scale))
  in
  let labeled, tr, tel, traced =
    traced_and_twin (fun tr tel ->
        Spans.with_span tr "label-swp" (fun () ->
            let suite = Spans.with_span tr "suite" (fun () -> fast_suite ~scale:label_scale) in
            traced_sweep tr tel config ~swp:true (Labeling.tasks suite)))
  in
  check_same_labels t ~what:"traced sweep" timed labeled;
  let stats, coverage = finish_trace t ~workload:args.workload ~seed:args.seed tr in
  emit t ((coverage :: sweep_layers stats tel) @ traced @ untraced)

(* --- the offline training pipeline ------------------------------------- *)

let train_config = label_config ~scale:train_scale ~jobs:1

let cv_of_report (r : Train.report) =
  match r.Train.chosen with
  | "nn" -> r.Train.nn_loocv
  | "svm" -> r.Train.svm_loocv
  | _ -> r.Train.mlp_loocv

let artifact_digest a = Digest.to_hex (Digest.string (Model_artifact.to_string a))

let train_timed args =
  let t = tally () in
  let config = train_config in
  let start = now () in
  let setups = ref [] in
  let first = ref None in
  let samples =
    repeat_for ~start ~seconds:args.seconds (fun () ->
        (* [Train.run] takes no suite: it generates the same one first, so
           this time is also part of [wall]. *)
        ignore (timed_suite setups ~scale:train_scale);
        reset_caches ();
        let t0 = now () in
        let artifact, report = Train.run config ~swp:false ~model:Train.Best in
        let wall = now () -. t0 in
        let heap = live_heap_mb () in
        let digest = artifact_digest artifact in
        (match !first with
        | None -> first := Some (digest, report)
        | Some (d, _) -> check t (digest = d) "repeat training: artifact differs");
        (* One request is one whole training. *)
        { wall; rate = 1.0 /. wall; p50 = wall *. 1e6; heap })
  in
  let digest, report = Option.get !first in
  reference_check t config ~swp:false ~seed:args.seed
    (Labeling.tasks (fast_suite ~scale:train_scale))
    None;
  check_golden t ~workload:"train-noswp" digest;
  end_to_end t ~setups:!setups ~samples ~cv_accuracy:(cv_of_report report) |> emit t

(* [Train]'s example cap for the LOOCV SVM: a deterministic stride. *)
let cap_examples (ds : Dataset.t) cap =
  let n = Dataset.size ds in
  if n <= cap then ds
  else
    let stride = float_of_int n /. float_of_int cap in
    {
      ds with
      Dataset.examples =
        Array.init cap (fun i -> ds.Dataset.examples.(int_of_float (float_of_int i *. stride)));
    }

(* [Train.run ~swp:false ~model:Best] rebuilt from public entry points,
   one span per stage. *)
let traced_train tr tel (config : Config.t) =
  Spans.with_span tr "train-noswp" (fun () ->
      let suite = Spans.with_span tr "suite" (fun () -> fast_suite ~scale:train_scale) in
      let labeled = traced_sweep tr tel config ~swp:false (Labeling.tasks suite) in
      let ds = Spans.with_span tr "features" (fun () -> Labeling.to_dataset config labeled) in
      if Dataset.size ds = 0 then failwith "train-noswp: no loops survive the filters";
      let selected =
        Spans.with_span tr "select" (fun () -> Experiments.select_feature_subset config ds)
      in
      let n_classes = ds.Dataset.n_classes in
      let scaled, nn =
        Spans.with_span tr "loocv.nn" (fun () ->
            let dss = Dataset.select_features ds selected in
            let scaled = Scale.apply (Scale.fit dss) dss in
            let model =
              Knn.train ~radius:config.Config.knn_radius ~n_classes (Dataset.points scaled)
            in
            let pred = Knn.loo_predictions model in
            (scaled, Metrics.accuracy ~pred ~truth:(Dataset.labels scaled)))
      in
      let svm =
        Spans.with_span tr "loocv.svm" (fun () ->
            let svm_ds = cap_examples scaled config.Config.loocv_svm_cap in
            let pred =
              Multiclass.loo_predictions ~n_classes ~kernel:config.Config.svm_kernel
                ~gamma:config.Config.svm_gamma (Dataset.points svm_ds)
            in
            Metrics.accuracy ~pred ~truth:(Dataset.labels svm_ds))
      in
      let mlp =
        Spans.with_span tr "loocv.mlp" (fun () ->
            let groups = Array.map (fun e -> e.Dataset.group) scaled.Dataset.examples in
            let pred =
              Loocv.grouped ~groups
                ~train:(fun p ->
                  if Array.length p = 0 then None
                  else
                    Some
                      (fst
                         (Mlp.train ~seed:config.Config.mlp_seed ~hyper:config.Config.mlp_hyper
                            ~n_classes p)))
                ~predict:(fun m x -> match m with None -> 0 | Some m -> Mlp.predict m x)
                (Dataset.points scaled)
            in
            Metrics.accuracy ~pred ~truth:(Dataset.labels scaled))
      in
      let predictor =
        Spans.with_span tr "fit" (fun () ->
            if mlp > nn && mlp > svm then
              Predictor.train_mlp ~telemetry:tel config ~features:selected ds
            else if nn > svm then Predictor.train_nn config ~features:selected ds
            else Predictor.train_svm ~cap:config.Config.fig4_svm_cap config ~features:selected ds)
      in
      let artifact =
        Spans.with_span tr "artifact" (fun () ->
            Predictor.to_artifact config ~dataset_digest:(Dataset.digest ds) predictor)
      in
      (artifact, Dataset.size ds))

let train_traced args =
  let t = tally () in
  let config = train_config in
  let (timed, _), untraced =
    untraced_run ~jobs:1 (fun () -> Train.run config ~swp:false ~model:Train.Best)
  in
  let (artifact, examples), tr, tel, traced =
    traced_and_twin (fun tr tel -> traced_train tr tel config)
  in
  check t
    (Model_artifact.to_string artifact = Model_artifact.to_string timed)
    "traced training: artifact differs from Train.run's";
  let stats, coverage = finish_trace t ~workload:args.workload ~seed:args.seed tr in
  emit t
    ((coverage :: sweep_layers stats tel)
    @ traced
    @ untraced
    @ [
        ("features.s", self_s stats "features");
        (* [Labeling.to_dataset] extracts features once per kept loop. *)
        ("features.calls", (float_of_int examples, 1));
        ("select.s", self_s stats "select");
        ("loocv.nn_s", self_s stats "loocv.nn");
        ("loocv.svm_s", self_s stats "loocv.svm");
        ("loocv.mlp_s", self_s stats "loocv.mlp");
        ("fit.s", self_s stats "fit");
        ("artifact.s", self_s stats "artifact");
      ])

(* --- closed-loop serving ------------------------------------------------ *)

let serve_config = Config.fast

type serve_inputs = {
  loops : Loop.t array;  (** distinct request loops; the kernels first *)
  n_kernels : int;
  stream : int array;  (** request order, as indices into [loops] *)
  expected : int array;  (** local [Predict_service] answers per loop *)
}

let serve_inputs t ~seed =
  let kernels = Array.of_list (List.map (fun (name, maker) -> maker ~name ~trip:256) Kernels.all) in
  let pool = Serve_bench.loop_pool { serve_config with Config.seed } in
  let rng = Rng.create seed in
  let order = Array.init (Array.length pool) Fun.id in
  Rng.shuffle rng order;
  let others = Array.init (serve_distinct - Array.length kernels) (fun i -> pool.(order.(i))) in
  let loops = Array.append kernels others in
  let stream = Array.init serve_requests (fun i -> i mod Array.length loops) in
  Rng.shuffle rng stream;
  let local =
    match Result.bind (Model_artifact.load artifact_path) (Predict_service.create serve_config) with
    | Ok s -> s
    | Error e -> failwith ("serve-closed: " ^ e)
  in
  let expected = Predict_service.predict_batch local (Array.to_list loops) in
  let golden = pairs_of_file golden_predictions_path in
  Array.iteri
    (fun i (k : Loop.t) ->
      check t
        (List.assoc_opt k.Loop.name golden = Some (string_of_int expected.(i)))
        (Printf.sprintf "local answer for kernel %s differs from %s" k.Loop.name
           golden_predictions_path))
    kernels;
  { loops; n_kernels = Array.length kernels; stream; expected }

type replay = {
  setup : float;
  sample : sample;
  latencies : float array;  (** us per request, in stream order *)
  stats : (string * int) list;  (** the server's [stats] frame *)
}

(* Kernel answers that equal the golden fixture's, out of those served. *)
type kernel_tally = { mutable agree : int; mutable served : int }

let serve_opts = { Serve.default_opts with Serve.port = 0; jobs = 1; batch_window = 0.001 }

let stats_of_text text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] -> Option.map (fun n -> (k, n)) (int_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' text)

let ok_or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* Every answer must equal the local service's (whose kernel answers were
   checked against the golden fixture); a shed or a transport error is a
   failure. *)
let check_answers t kt inputs answers =
  Array.iteri
    (fun i answer ->
      let li = inputs.stream.(i) in
      let name = inputs.loops.(li).Loop.name in
      let ok =
        match answer with
        | Ok (Wire.Factor f) ->
          check t (f = inputs.expected.(li))
            (Printf.sprintf "request %d (%s): served %d, local %d" i name f inputs.expected.(li));
          f = inputs.expected.(li)
        | Ok Wire.Busy ->
          check t false (Printf.sprintf "request %d (%s) shed" i name);
          false
        | Ok r ->
          check t false (Printf.sprintf "request %d: unexpected %s" i (Wire.response_payload r));
          false
        | Error e ->
          check t false (Printf.sprintf "request %d: %s" i e);
          false
      in
      if li < inputs.n_kernels then begin
        kt.served <- kt.served + 1;
        if ok then kt.agree <- kt.agree + 1
      end)
    answers

(* One replay on a fresh server: set-up is listen + serve domain + client
   connections; the replay is [serve_clients] closed-loop clients, each
   taking every [serve_clients]-th request of the stream. *)
let replay t kt inputs =
  let t0 = now () in
  let server =
    ok_or_fail "listen"
      (Serve.listen ~opts:serve_opts ~telemetry:(Telemetry.create ()) serve_config
         ~artifact:artifact_path)
  in
  let domain = Domain.spawn (fun () -> Serve.run server) in
  let addr = Printf.sprintf "127.0.0.1:%d" (Serve.port server) in
  let clients =
    Array.init serve_clients (fun _ -> ok_or_fail "connect" (Serve_client.connect addr))
  in
  let setup = now () -. t0 in
  let n = Array.length inputs.stream in
  let latencies = Array.make n 0.0 and answers = Array.make n (Error "not sent") in
  let t1 = now () in
  let threads =
    Array.to_list
      (Array.mapi
         (fun k c ->
           Thread.create
             (fun () ->
               let i = ref k in
               while !i < n do
                 let s = now () in
                 answers.(!i) <- Serve_client.predict c inputs.loops.(inputs.stream.(!i));
                 latencies.(!i) <- (now () -. s) *. 1e6;
                 i := !i + serve_clients
               done)
             ())
         clients)
  in
  List.iter Thread.join threads;
  let wall = now () -. t1 in
  let heap = live_heap_mb () in
  let stats =
    match Serve_client.control clients.(0) "stats" with
    | Ok (Wire.Okay text) -> stats_of_text text
    | _ -> []
  in
  ignore (Serve_client.control clients.(0) "shutdown");
  Array.iter Serve_client.close clients;
  Domain.join domain;
  check_answers t kt inputs answers;
  let sample =
    { wall; rate = float_of_int n /. wall; p50 = median (Array.to_list latencies); heap }
  in
  { setup; sample; latencies; stats }

let serve_timed args =
  let t = tally () in
  let inputs = serve_inputs t ~seed:args.seed in
  let kt = { agree = 0; served = 0 } in
  let start = now () in
  let replays =
    repeat_for ~start ~seconds:args.seconds (fun () ->
        let r = replay t kt inputs in
        (r.setup, r.sample))
  in
  end_to_end t ~setups:(List.map fst replays) ~samples:(List.map snd replays)
    ~cv_accuracy:(ratio kt.agree kt.served)
  |> emit t

(* The request stream through the codec and the prediction service,
   sequentially, batched at the server's mean batch size. *)
let traced_serve tr inputs ~batch =
  Spans.with_span tr "serve-closed" (fun () ->
      let service =
        ok_or_fail "service"
          (Result.bind (Model_artifact.load artifact_path) (Predict_service.create serve_config))
      in
      let bytes = ref 0 in
      let parsed =
        Array.map
          (fun li ->
            let frame =
              Spans.with_span tr "wire.encode" (fun () ->
                  Wire.encode (Wire.request_payload (Wire.Predict inputs.loops.(li))))
            in
            bytes := !bytes + String.length frame;
            Spans.with_span tr "wire.decode" (fun () ->
                match Wire.decode frame with
                | Wire.Payload (p, _) -> (
                  match Wire.parse_request p with
                  | Ok (Wire.Predict l) -> l
                  | _ -> failwith "serve-closed: request did not parse back")
                | _ -> failwith "serve-closed: frame did not decode"))
          inputs.stream
      in
      let n = Array.length parsed in
      let answers = Array.make n 0 in
      let rec batches i =
        if i < n then begin
          let k = min batch (n - i) in
          let out =
            Spans.with_span tr "predict_service.batch" (fun () ->
                Predict_service.predict_batch service (Array.to_list (Array.sub parsed i k)))
          in
          Array.blit out 0 answers i k;
          batches (i + k)
        end
      in
      batches 0;
      (* The two halves of a cache miss, timed apart on the distinct loops. *)
      let predictor = Predict_service.predictor service in
      Array.iter
        (fun l ->
          if Loop.unrollable l then begin
            let x =
              Spans.with_span tr "predict_service.featurize" (fun () ->
                  Predictor.featurize predictor serve_config l)
            in
            ignore
              (Spans.with_span tr "predict_service.classify" (fun () ->
                   Predictor.classify_scaled predictor x))
          end)
        inputs.loops;
      ( answers,
        float_of_int !bytes /. float_of_int (max 1 n),
        ratio (Predict_service.cache_hits service)
          (Predict_service.cache_hits service + Predict_service.cache_misses service) ))

let serve_traced args =
  let t = tally () in
  let inputs = serve_inputs t ~seed:args.seed in
  let r = replay t { agree = 0; served = 0 } inputs in
  let s key = Option.value ~default:0 (List.assoc_opt key r.stats) in
  let batches = s "batches" and batched = s "batched-loops" in
  let batch_mean = ratio batched batches in
  let batch = max 1 (int_of_float (Float.round batch_mean)) in
  let (answers, request_bytes, hit_ratio), tr, _, traced =
    traced_and_twin (fun tr _ -> traced_serve tr inputs ~batch)
  in
  Array.iteri
    (fun i f ->
      let li = inputs.stream.(i) in
      check t (f = inputs.expected.(li))
        (Printf.sprintf "traced request %d: %d, local %d" i f inputs.expected.(li)))
    answers;
  let stats, coverage = finish_trace t ~workload:args.workload ~seed:args.seed tr in
  emit t
    ([
       coverage;
       ("wire.encode_us", mean_us stats "wire.encode");
       ("wire.decode_us", mean_us stats "wire.decode");
       ("wire.request_bytes", (request_bytes, Array.length inputs.stream));
       ("predict_service.featurize_us", mean_us stats "predict_service.featurize");
       ("predict_service.classify_us", mean_us stats "predict_service.classify");
       ("predict_service.cache_hit_ratio", (hit_ratio, Array.length inputs.stream));
       ("serve.batch_mean", (batch_mean, batches));
       ("serve.shed", (float_of_int (s "shed"), 1));
       ( "serve.p99_us",
         (percentile (Array.to_list r.latencies) 0.99, Array.length r.latencies) );
     ]
    @ traced)

let () =
  let args = parse_args () in
  match
    match (args.workload, args.trace) with
    | "label-swp", false -> label_timed args
    | "label-swp", true -> label_traced args
    | "train-noswp", false -> train_timed args
    | "train-noswp", true -> train_traced args
    | _, false -> serve_timed args
    | _, true -> serve_traced args
  with
  | () -> ()
  | exception e ->
    Printf.eprintf "bench: %s failed: %s\n%!" args.workload (Printexc.to_string e);
    exit 1
