(* Labeling-sweep benchmark: fast simulator vs the frozen reference.

   Compiles the FAST-scale suite once (shared compile cache), then times
   the part the labelling pipeline actually repeats per (loop, factor,
   swp): create a state, run the warm-up/measure pair.  The naive side is
   [Sim_reference] on [Cache_reference] — the complete pre-optimisation
   stack, frozen verbatim — so the ratio reflects every layer of the fast
   path: array plans, shift/mask caches, shared CSR graphs, fetch skip,
   entry skip, wrap-period fast-forward.  Both sides produce (cycles,
   stats) for every executable and the run aborts the speedup claim unless
   they are bit-identical.

   Also times Deps.build plus its CSR view over the suite's loops, and
   writes a one-line JSON summary to stdout and BENCH_sim.json (a CI artifact next
   to BENCH_ml.json). *)

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

let () =
  let benchmarks = Suite.full ~scale:Config.fast.Config.scale ~seed:Config.fast.Config.seed in
  let loops = Suite.all_loops benchmarks |> List.map snd in
  let cache = Compile_cache.create () in
  Printf.printf "compiling %d loops x 8 factors x {straight, swp}...\n%!" (List.length loops);
  let t0 = Unix.gettimeofday () in
  let exes =
    List.concat_map
      (fun loop ->
        List.concat_map
          (fun swp ->
            List.map
              (fun u -> Simulator.compile ~cache machine ~swp loop u)
              [ 1; 2; 3; 4; 5; 6; 7; 8 ])
          [ false; true ])
      loops
  in
  let t_compile = Unix.gettimeofday () -. t0 in
  Printf.printf "compiled %d executables in %.1fs\n%!" (List.length exes) t_compile;

  (* Bit-identity first: cycles and the full stats breakdown, warm runs
     included, for every executable. *)
  let mismatches = ref 0 in
  List.iter
    (fun exe -> if naive_pair exe <> fast_pair exe then incr mismatches)
    exes;
  let identical = !mismatches = 0 in
  Printf.printf "bit-identity: %d mismatches over %d executables\n%!" !mismatches
    (List.length exes);

  (* Interleaved best-of-N so drift hits both sides equally. *)
  Gc.full_major ();
  let reps = 4 in
  let t_naive = ref infinity and t_fast = ref infinity in
  let tel = Telemetry.global in
  let c name = Telemetry.counter tel ~pass:"simulator" name in
  let iters0 = c "iters-simulated" and ff0 = c "iters-fast-forwarded" in
  let es0 = c "entries-simulated" and sk0 = c "entries-skipped" in
  for _ = 1 to reps do
    let a = Unix.gettimeofday () in
    List.iter (fun exe -> ignore (naive_pair exe)) exes;
    let d = Unix.gettimeofday () -. a in
    if d < !t_naive then t_naive := d;
    let a = Unix.gettimeofday () in
    List.iter (fun exe -> ignore (fast_pair exe)) exes;
    let d = Unix.gettimeofday () -. a in
    if d < !t_fast then t_fast := d
  done;
  let iters_sim = c "iters-simulated" - iters0 in
  let iters_ff = c "iters-fast-forwarded" - ff0 in
  let entries_sim = c "entries-simulated" - es0 in
  let entries_skipped = c "entries-skipped" - sk0 in
  let speedup = !t_naive /. Float.max !t_fast 1e-9 in
  Printf.printf "labeling sim sweep (best of %d): naive %.3fs | fast %.3fs (%.2fx)\n%!" reps
    !t_naive !t_fast speedup;

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
       \"iters_simulated\":%d,\"iters_fast_forwarded\":%d,\
       \"entries_simulated\":%d,\"entries_skipped\":%d,\
       \"deps_build_s\":%.4f}"
      (List.length loops) (List.length exes) max_sim_iters t_compile !t_naive !t_fast speedup
      identical iters_sim iters_ff entries_sim entries_skipped t_build
  in
  print_endline json;
  let oc = open_out "BENCH_sim.json" in
  output_string oc (json ^ "\n");
  close_out oc;
  if not identical then exit 1
