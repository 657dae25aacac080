(* Labeling-sweep benchmark: fast simulator vs the frozen reference.

   Walks the FAST-scale suite one loop at a time: compile its 16
   executables (8 factors x {straight, swp}), gate them, time them, drop
   them, so peak memory is one loop's worth.  What is timed is the part
   the labelling pipeline actually repeats per (loop, factor, swp):
   create a state, run the warm-up/measure pair.  The naive side is
   [Sim_reference] on [Cache_reference] — the complete pre-optimisation
   stack, frozen verbatim — so the ratio reflects every layer of the fast
   path: array plans, shift/mask caches, shared CSR graphs, fetch skip,
   entry skip.  Both sides produce (cycles, stats) for every executable
   and the run fails unless they are bit-identical.  [naive_s] and
   [fast_s] sum each loop's best of [reps] interleaved repetitions.

   Also times Deps.build plus its CSR view over the suite's loops, and
   writes a one-line JSON summary to stdout and BENCH_sim.json (a CI
   artifact next to BENCH_ml.json), with the process's peak RSS. *)

let machine = Config.fast.Config.machine
let max_sim_iters = Config.fast.Config.max_sim_iters

let stats_tuple (s : Simulator.stats) =
  ( s.Simulator.issue_cycles,
    s.Simulator.data_stall_cycles,
    s.Simulator.fetch_stall_cycles,
    s.Simulator.branch_cycles,
    s.Simulator.entry_overhead_cycles,
    s.Simulator.pipeline_fill_cycles )

let ref_stats_tuple (s : Sim_reference.stats) =
  ( s.Sim_reference.issue_cycles,
    s.Sim_reference.data_stall_cycles,
    s.Sim_reference.fetch_stall_cycles,
    s.Sim_reference.branch_cycles,
    s.Sim_reference.entry_overhead_cycles,
    s.Sim_reference.pipeline_fill_cycles )

(* One labelling measurement, naive and fast: cold state, then the sweep's
   warm-up/measure double run. *)
let naive_pair exe =
  let st = Sim_reference.create_state machine in
  let c1, s1 = Sim_reference.run_profiled ~max_sim_iters st exe in
  let c2, s2 = Sim_reference.run_profiled ~max_sim_iters st exe in
  ((c1, ref_stats_tuple s1), (c2, ref_stats_tuple s2))

let fast_pair exe =
  let st = Simulator.create_state machine in
  let c1, s1 = Simulator.run_profiled ~max_sim_iters st exe in
  let c2, s2 = Simulator.run_profiled ~max_sim_iters st exe in
  ((c1, stats_tuple s1), (c2, stats_tuple s2))

(* Peak resident set size in MB (VmHWM), or -1 where /proc is absent. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> -1
  | status ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb / 1024) with
        | mb -> mb
        | exception _ -> acc)
      (-1) (String.split_on_char '\n' status)

let () =
  let benchmarks = Suite.full ~scale:Config.fast.Config.scale ~seed:Config.fast.Config.seed in
  let loops = Suite.all_loops benchmarks |> List.map snd in
  Printf.printf "%d loops x 8 factors x {straight, swp}, one loop at a time...\n%!"
    (List.length loops);
  let reps = 4 in
  let tel = Telemetry.global in
  let c name = Telemetry.counter tel ~pass:"simulator" name in
  let t_compile = ref 0.0 and t_naive = ref 0.0 and t_fast = ref 0.0 in
  let n_exes = ref 0 and mismatches = ref 0 in
  let iters_sim = ref 0 and entries_sim = ref 0 and entries_skipped = ref 0 in
  List.iter
    (fun loop ->
      let t0 = Unix.gettimeofday () in
      let exes =
        List.concat_map
          (fun swp -> List.init 8 (fun i -> Simulator.compile machine ~swp loop (i + 1)))
          [ false; true ]
      in
      t_compile := !t_compile +. (Unix.gettimeofday () -. t0);
      n_exes := !n_exes + List.length exes;
      (* Bit-identity first: cycles and the full stats breakdown, warm runs
         included, for every executable. *)
      List.iter (fun exe -> if naive_pair exe <> fast_pair exe then incr mismatches) exes;
      (* Interleaved best-of-N so drift hits both sides equally; the
         simulator counters cover the timed fast runs only. *)
      let best_naive = ref infinity and best_fast = ref infinity in
      for _ = 1 to reps do
        let a = Unix.gettimeofday () in
        List.iter (fun exe -> ignore (naive_pair exe)) exes;
        best_naive := Float.min !best_naive (Unix.gettimeofday () -. a);
        let i0 = c "iters-simulated" and e0 = c "entries-simulated" and s0 = c "entries-skipped" in
        let a = Unix.gettimeofday () in
        List.iter (fun exe -> ignore (fast_pair exe)) exes;
        best_fast := Float.min !best_fast (Unix.gettimeofday () -. a);
        iters_sim := !iters_sim + (c "iters-simulated" - i0);
        entries_sim := !entries_sim + (c "entries-simulated" - e0);
        entries_skipped := !entries_skipped + (c "entries-skipped" - s0)
      done;
      t_naive := !t_naive +. !best_naive;
      t_fast := !t_fast +. !best_fast)
    loops;
  let identical = !mismatches = 0 in
  Printf.printf "compiled %d executables in %.1fs\n%!" !n_exes !t_compile;
  Printf.printf "bit-identity: %d mismatches over %d executables\n%!" !mismatches !n_exes;
  let speedup = !t_naive /. Float.max !t_fast 1e-9 in
  Printf.printf "labeling sim sweep (per-loop best of %d): naive %.3fs | fast %.3fs (%.2fx)\n%!"
    reps !t_naive !t_fast speedup;

  (* Dependence graphs: Deps.build plus its CSR view, best of 5. *)
  let lat = Machine.latency machine in
  let t_build =
    let best = ref infinity in
    for _ = 1 to 5 do
      let a = Unix.gettimeofday () in
      List.iter (fun l -> ignore (Deps.to_csr (Deps.build ~latency:lat l))) loops;
      let d = Unix.gettimeofday () -. a in
      if d < !best then best := d
    done;
    !best
  in
  Printf.printf "deps: build+csr %.4fs over %d loops\n%!" t_build (List.length loops);

  let json =
    Printf.sprintf
      "{\"bench\":\"sim-fast-path\",\"loops\":%d,\"executables\":%d,\
       \"max_sim_iters\":%d,\"compile_s\":%.1f,\"naive_s\":%.3f,\
       \"fast_s\":%.3f,\"speedup\":%.2f,\"identical\":%b,\
       \"iters_simulated\":%d,\
       \"entries_simulated\":%d,\"entries_skipped\":%d,\
       \"deps_build_s\":%.4f,\"peak_rss_mb\":%d}"
      (List.length loops) !n_exes max_sim_iters !t_compile !t_naive !t_fast speedup identical
      !iters_sim !entries_sim !entries_skipped t_build (peak_rss_mb ())
  in
  print_endline json;
  let oc = open_out "BENCH_sim.json" in
  output_string oc (json ^ "\n");
  close_out oc;
  if not identical then exit 1
