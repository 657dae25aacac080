(* The fast-path contract: [Simulator] with its steady-state fast-forwards
   (fetch skip, entry skip, wrap-period replay), memoised dependence graphs
   and array kernels must be bit-identical — total cycles AND the six-way
   stats breakdown, on warm states as well as cold — to [Sim_reference],
   the frozen pre-optimisation implementation.  See DESIGN.md §9 for the
   exactness arguments these properties back. *)

let machine = Machine.itanium2

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

(* Two consecutive runs on one state, like the sweep's warm-up/measure
   pair: the second run exercises the cross-call entry and plan memos. *)
let fast_pair exe iters =
  let st = Simulator.create_state machine in
  let c1, s1 = Simulator.run_profiled ~max_sim_iters:iters st exe in
  let c2, s2 = Simulator.run_profiled ~max_sim_iters:iters st exe in
  ((c1, stats_tuple s1), (c2, stats_tuple s2))

let naive_pair exe iters =
  let st = Sim_reference.create_state machine in
  let c1, s1 = Sim_reference.run_profiled ~max_sim_iters:iters st exe in
  let c2, s2 = Sim_reference.run_profiled ~max_sim_iters:iters st exe in
  ((c1, ref_stats_tuple s1), (c2, ref_stats_tuple s2))

let gen =
  QCheck.Gen.(
    let* seed = 0 -- 60000 in
    let* f = 1 -- 8 in
    let* swp = bool in
    let* iters = oneofl [ 40; 75; 200 ] in
    let* small_arrays = bool in
    let l = Fuzz.Gen.synth_loop ~prefix:"qe" seed in
    (* Small arrays wrap within the simulated window, which is what engages
       the wrap-period fast-forward. *)
    let l = if small_arrays then Fuzz.Gen.with_array_lengths l (3 + (seed mod 13)) else l in
    let l = { l with Loop.trip_actual = 1 + (seed mod 900) } in
    return (l, f, swp, iters))

let prop_fast_equals_reference =
  QCheck.Test.make ~count:300
    ~name:"fast-forwarded Simulator bit-identical to Sim_reference"
    (QCheck.make gen)
    (fun (loop, f, swp, iters) ->
      let exe = Simulator.compile ~cache:(Compile_cache.create ()) machine ~swp loop f in
      naive_pair exe iters = fast_pair exe iters)

let prop_fast_forward_flag_is_pure =
  QCheck.Test.make ~count:120
    ~name:"fast_forward off takes the naive route to the same bits"
    (QCheck.make gen)
    (fun (loop, f, swp, iters) ->
      let exe = Simulator.compile ~cache:(Compile_cache.create ()) machine ~swp loop f in
      let on = fast_pair exe iters in
      Simulator.fast_forward := false;
      let off =
        Fun.protect
          ~finally:(fun () -> Simulator.fast_forward := true)
          (fun () -> fast_pair exe iters)
      in
      on = off)

(* --- end-to-end labels -------------------------------------------------- *)

let test_labels_unchanged_by_fast_paths () =
  (* The sweep that labels the FAST suite — noise, cycle filters, argmin —
     must produce the same cycles and therefore the same best factor with
     the fast paths on and off.  Fresh compile caches per run so nothing is
     served from the cycles memo. *)
  let benchmarks =
    Suite.full ~scale:0.04 ~seed:Config.fast.Config.seed
    |> List.filteri (fun i _ -> i < 4)
  in
  let loops = List.concat_map (fun (b : Suite.benchmark) ->
      Array.to_list (Array.map fst b.Suite.loops)) benchmarks
  in
  let sweep loop =
    let rng = Rng.create 2005 in
    Measure.sweep ~noise:0.015 ~runs:5 ~max_sim_iters:150
      ~cache:(Compile_cache.create ()) ~rng ~machine ~swp:false loop
  in
  List.iter
    (fun loop ->
      let on = sweep loop in
      Simulator.fast_forward := false;
      let off =
        Fun.protect
          ~finally:(fun () -> Simulator.fast_forward := true)
          (fun () -> sweep loop)
      in
      Alcotest.(check (array int)) (loop.Loop.name ^ " cycles") off on;
      let argmin a =
        let best = ref 0 in
        Array.iteri (fun i v -> if v < a.(!best) then best := i) a;
        !best + 1
      in
      Alcotest.(check int) (loop.Loop.name ^ " best factor") (argmin off) (argmin on))
    loops

(* --- RecMII upper bound ------------------------------------------------- *)

let test_rec_mii_bracketed_by_graph_bound () =
  (* The binary search's upper bound is the sum of non-serial edge
     latencies; RecMII must land inside [1, ub] for every kernel. *)
  List.iter
    (fun (name, maker) ->
      let loop = maker ~name ~trip:64 in
      let d = Deps_memo.deps machine loop in
      let ub =
        List.fold_left
          (fun acc (e : Deps.edge) ->
            if e.Deps.dkind <> Deps.Serial then acc + e.Deps.latency else acc)
          1 d.Deps.edges
      in
      let r = Modulo_sched.rec_mii machine loop in
      if not (1 <= r && r <= ub) then
        Alcotest.failf "%s: RecMII %d outside [1, %d]" name r ub)
    Kernels.all

let test_rec_mii_long_recurrence () =
  (* A two-op carried recurrence (acc -> t -> acc, distance 1) whose cycle
     latency exceeds any single-op latency: RecMII must be the full cycle
     latency, which only a genuinely graph-derived search bound admits. *)
  let text =
    {|loop chainrec {
  lang fortran
  trip 64
  array x 256 elem=8
  reg f acc
  f xv = load x [1*i+0]
  f t = fadd acc xv
  f acc = fmul t t
  liveout acc
}|}
  in
  match Loop_text.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok loop ->
    Alcotest.(check int) "RecMII = fadd + fmul latency"
      (machine.Machine.lat_fadd + machine.Machine.lat_fmul)
      (Modulo_sched.rec_mii machine loop)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fast_equals_reference;
    QCheck_alcotest.to_alcotest prop_fast_forward_flag_is_pure;
    ("labels unchanged by fast paths", `Slow, test_labels_unchanged_by_fast_paths);
    ("RecMII within graph-derived bound", `Quick, test_rec_mii_bracketed_by_graph_bound);
    ("RecMII of a long carried recurrence", `Quick, test_rec_mii_long_recurrence);
  ]
