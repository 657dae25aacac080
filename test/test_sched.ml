(* Tests for schedulers and the register allocator. *)

let machine = Machine.itanium2

let kernels_for_test =
  List.map (fun (name, maker) -> (name, maker ~name ~trip:64)) Kernels.all

let test_list_sched_validates () =
  List.iter
    (fun (name, loop) ->
      let s = List_sched.schedule machine loop in
      match Schedule.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    kernels_for_test

let test_list_sched_respects_res_bound () =
  List.iter
    (fun (name, loop) ->
      let s = List_sched.schedule machine loop in
      Alcotest.(check bool)
        (name ^ " length >= res bound")
        true
        (s.Schedule.length >= Machine.res_cycles machine loop.Loop.body))
    kernels_for_test

let test_list_sched_backedge_last () =
  List.iter
    (fun (name, loop) ->
      let s = List_sched.schedule machine loop in
      let be = Loop.backedge_index loop in
      let max_cycle = Array.fold_left max 0 s.Schedule.assignment in
      Alcotest.(check int) (name ^ " backedge in final cycle") max_cycle
        s.Schedule.assignment.(be))
    kernels_for_test

let test_list_sched_latency_respected () =
  let loop = Kernels.long_latency_chain ~name:"s_chain" ~trip:32 in
  let s = List_sched.schedule machine loop in
  (* chain: load(3) + 5 fmul(4) + store must span at least 23 issue cycles *)
  Alcotest.(check bool) "span covers chain" true (s.Schedule.length >= 23)

let test_list_sched_unrolled_validates () =
  List.iter
    (fun (name, loop) ->
      List.iter
        (fun f ->
          let u = Unroll.run loop f in
          let s = List_sched.schedule machine u.Unroll.kernel in
          match Schedule.validate s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s u=%d: %s" name f e)
        [ 2; 8 ])
    kernels_for_test

let test_list_sched_amortizes () =
  (* Per-original-iteration issue length shrinks with unrolling for an
     ILP-rich loop. *)
  let loop = Kernels.daxpy ~name:"s_daxpy" ~trip:64 in
  let len f =
    let u = Unroll.run loop f in
    let s = List_sched.schedule machine u.Unroll.kernel in
    float_of_int s.Schedule.length /. float_of_int f
  in
  Alcotest.(check bool) "u4 cheaper per iteration than u1" true (len 4 < len 1)

(* --- Modulo scheduling --- *)

let test_mii_ddot () =
  let loop = Kernels.ddot ~name:"m_ddot" ~trip:64 in
  Alcotest.(check int) "RecMII = fadd latency" machine.Machine.lat_fadd
    (Modulo_sched.rec_mii machine loop);
  Alcotest.(check bool) "ResMII <= RecMII here" true
    (Modulo_sched.res_mii machine loop <= machine.Machine.lat_fadd)

let test_mii_daxpy_resource () =
  let loop = Kernels.daxpy ~name:"m_daxpy" ~trip:64 in
  (* 3 memory ops on 2 M units: ResMII 2. *)
  Alcotest.(check int) "ResMII" 2 (Modulo_sched.res_mii machine loop)

let test_modulo_achieves_mii_ddot () =
  let loop = Kernels.ddot ~name:"m_ddot2" ~trip:64 in
  match Modulo_sched.schedule machine loop with
  | None -> Alcotest.fail "ddot should pipeline"
  | Some s -> begin
    match s.Schedule.kind with
    | Schedule.Pipelined { ii; _ } ->
      Alcotest.(check int) "II = RecMII" machine.Machine.lat_fadd ii
    | Schedule.Straight -> Alcotest.fail "expected pipelined"
  end

let test_modulo_validates () =
  List.iter
    (fun (name, loop) ->
      match Modulo_sched.schedule machine loop with
      | None -> ()
      | Some s -> begin
        match Schedule.validate s with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" name e
      end)
    kernels_for_test

let test_modulo_refuses_calls_exits () =
  let call_loop = Kernels.call_in_loop ~name:"m_call" ~trip:64 in
  let exit_loop = Kernels.early_exit_search ~name:"m_exit" ~trip:64 in
  Alcotest.(check bool) "no SWP for calls" true
    (Modulo_sched.schedule machine call_loop = None);
  Alcotest.(check bool) "no SWP for exits" true
    (Modulo_sched.schedule machine exit_loop = None)

let test_modulo_beats_straight_ddot () =
  (* The whole point of SWP: ddot's steady state reaches RecMII per
     iteration, far below the straight schedule's span. *)
  let loop = Kernels.ddot ~name:"m_win" ~trip:64 in
  let straight = List_sched.schedule machine loop in
  match Modulo_sched.schedule machine loop with
  | None -> Alcotest.fail "should pipeline"
  | Some s ->
    Alcotest.(check bool) "II < straight span" true
      (Schedule.ii s < straight.Schedule.length)

let test_modulo_register_pressure_backoff () =
  (* A very wide unrolled FP loop cannot hold all rotating values in 24
     registers at a tight II; the scheduler must either raise II or give
     up — but never return an invalid schedule. *)
  let loop = Kernels.fir8 ~name:"m_fir" ~trip:64 in
  let u = Unroll.run loop 8 in
  match Modulo_sched.schedule machine u.Unroll.kernel with
  | None -> ()
  | Some s ->
    Alcotest.(check bool) "fits rotating register files" true
      (s.Schedule.int_pressure <= machine.Machine.rot_int_regs
      && s.Schedule.fp_pressure <= machine.Machine.rot_fp_regs)

(* --- Regalloc --- *)

let test_pressure_positive () =
  let loop = Kernels.fir8 ~name:"ra_fir" ~trip:64 in
  let s = List_sched.schedule machine loop in
  let int_p, fp_p = Regalloc.pressure s in
  Alcotest.(check bool) "some fp pressure" true (fp_p > 0);
  Alcotest.(check bool) "some int pressure" true (int_p > 0)

let test_allocate_within_limits_or_spills () =
  List.iter
    (fun (name, loop) ->
      List.iter
        (fun f ->
          let u = Unroll.run loop f in
          let s =
            Regalloc.allocate ~sched:(List_sched.schedule machine) u.Unroll.kernel
          in
          (match Schedule.validate s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s u=%d: %s" name f e);
          if s.Schedule.spills = 0 then begin
            Alcotest.(check bool)
              (Printf.sprintf "%s u=%d pressure ok" name f)
              true
              (s.Schedule.int_pressure <= machine.Machine.int_regs
              && s.Schedule.fp_pressure <= machine.Machine.fp_regs)
          end)
        [ 1; 8 ])
    kernels_for_test

let test_spill_code_inserted () =
  (* Force pressure: a machine with almost no FP registers. *)
  let tiny = { machine with Machine.fp_regs = 4; int_regs = 16 } in
  let loop = Kernels.fir8 ~name:"ra_spill" ~trip:64 in
  let u = Unroll.run loop 4 in
  let s = Regalloc.allocate ~sched:(List_sched.schedule tiny) u.Unroll.kernel in
  Alcotest.(check bool) "spills happened" true (s.Schedule.spills > 0);
  let has_spill_array =
    Array.exists
      (fun (a : Loop.array_info) -> a.Loop.aname = "$spill")
      s.Schedule.loop.Loop.arrays
  in
  Alcotest.(check bool) "spill slots allocated" true has_spill_array;
  match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e

let test_spill_lowers_pressure () =
  let tiny = { machine with Machine.fp_regs = 6 } in
  let loop = Kernels.fir8 ~name:"ra_lower" ~trip:64 in
  let u = Unroll.run loop 2 in
  let before = List_sched.schedule tiny u.Unroll.kernel in
  let _, fp_before = Regalloc.pressure before in
  let s = Regalloc.allocate ~sched:(List_sched.schedule tiny) u.Unroll.kernel in
  Alcotest.(check bool) "pressure reduced by spilling" true
    (s.Schedule.fp_pressure < fp_before || s.Schedule.spills > 0)

(* --- QCheck --- *)

let synth_gen =
  QCheck.Gen.(
    let* seed = 0 -- 30000 in
    let* f = 1 -- 8 in
    let rng = Rng.create seed in
    let profile = if seed mod 3 = 0 then Synth.int_pointer else Synth.fp_numeric in
    let l = Synth.generate rng profile ~name:(Printf.sprintf "qs%d" seed) in
    return (l, f))

let prop_list_schedule_valid =
  QCheck.Test.make ~count:80 ~name:"list schedules of random unrolled loops validate"
    (QCheck.make synth_gen)
    (fun (l, f) ->
      let u = Unroll.run l f in
      let kernel = (Rle.run u.Unroll.kernel).Rle.loop in
      let s = Regalloc.allocate ~sched:(List_sched.schedule machine) kernel in
      match Schedule.validate s with Ok () -> true | Error _ -> false)

let prop_modulo_schedule_valid =
  QCheck.Test.make ~count:40 ~name:"modulo schedules of random loops validate"
    (QCheck.make synth_gen)
    (fun (l, _) ->
      match Modulo_sched.schedule machine l with
      | None -> true
      | Some s -> (
        match Schedule.validate s with Ok () -> true | Error _ -> false))

let prop_modulo_ii_at_least_mii =
  QCheck.Test.make ~count:40 ~name:"II >= max(ResMII, RecMII)"
    (QCheck.make synth_gen)
    (fun (l, _) ->
      match Modulo_sched.schedule machine l with
      | None -> true
      | Some s -> (
        match s.Schedule.kind with
        | Schedule.Pipelined { ii; _ } ->
          ii >= Modulo_sched.res_mii machine l && ii >= Modulo_sched.rec_mii machine l
        | Schedule.Straight -> false))

(* --- The rotating-register floor --- *)

(* Per-class #defs + #live-ins, computed here independently of the
   scheduler: the least rotating-register requirement at any II. *)
let register_floor (loop : Loop.t) =
  let by_cls cls regs = List.length (List.filter (fun (r : Op.reg) -> r.Op.cls = cls) regs) in
  let defs = List.concat_map Op.defs (Array.to_list loop.Loop.body) in
  let live = Loop.live_in_regs loop in
  (by_cls Op.Int defs + by_cls Op.Int live, by_cls Op.Flt defs + by_cls Op.Flt live)

let over_floor (m : Machine.t) loop =
  let fi, ff = register_floor loop in
  fi > m.Machine.rot_int_regs || ff > m.Machine.rot_fp_regs

(* Fuzz loops and unrolled synthetic kernels, unrolled by the drawn
   factor where the unroller accepts the loop. *)
let floor_loop_gen =
  QCheck.Gen.(
    let* from_fuzz = bool in
    if from_fuzz then
      let* seed = 0 -- 1000 in
      let* id = 0 -- 10000 in
      let c = Fuzz.Gen.case ~seed ~id () in
      let l = c.Fuzz.Gen.loop in
      let f = if Loop.unrollable l then c.Fuzz.Gen.factor else 1 in
      return (Unroll.run l f).Unroll.kernel
    else
      let* l, f = synth_gen in
      return (Unroll.run l f).Unroll.kernel)

(* With the rotating files raised out of reach, the search stops at the
   first II that places.  Its pressure is at least the floor; and when it
   also fits the real machine, the real search reaches that same II (the
   placement does not depend on the register files), so the floor must
   not have rejected the loop. *)
let prop_floor_is_lower_bound =
  QCheck.Test.make ~count:40 ~name:"rotating-register floor bounds every modulo schedule"
    (QCheck.make floor_loop_gen)
    (fun l ->
      let fi, ff = register_floor l in
      Array.for_all
        (fun (m : Machine.t) ->
          let roomy = { m with Machine.rot_int_regs = 1 lsl 20; rot_fp_regs = 1 lsl 20 } in
          match Modulo_sched.schedule roomy l with
          | None -> true
          | Some s ->
            let ip = s.Schedule.int_pressure and fp = s.Schedule.fp_pressure in
            ip >= fi && fp >= ff
            && (ip > m.Machine.rot_int_regs || fp > m.Machine.rot_fp_regs
               || Option.map Schedule.ii (Modulo_sched.schedule m l) = Some (Schedule.ii s)))
        Fuzz.Gen.machines)

let prop_over_floor_rejected =
  QCheck.Test.make ~count:80 ~name:"loops over the register floor are not pipelined"
    (QCheck.make floor_loop_gen)
    (fun l ->
      Array.for_all
        (fun m -> (not (over_floor m l)) || Modulo_sched.schedule m l = None)
        Fuzz.Gen.machines)

let test_floor_rejects_counter () =
  let u = (Unroll.run (Kernels.fir8 ~name:"m_floor" ~trip:64) 8).Unroll.kernel in
  Alcotest.(check bool) "fir8 x8 is over the floor" true (over_floor machine u);
  let rejects () = Telemetry.counter Telemetry.global ~pass:"modulo" "floor-rejects" in
  let before = rejects () in
  Alcotest.(check bool) "not pipelined" true (Modulo_sched.schedule machine u = None);
  Alcotest.(check int) "floor-rejects bumped" (before + 1) (rejects ())

(* --- List scheduling against the Set-based scheduler it replaced --- *)

(* The scheduler as it stood before the ready heap and the flat resource
   table, verbatim but for taking its graph from a fresh [Deps.build]. *)
let reference_list_schedule (machine : Machine.t) (loop : Loop.t) =
  let kind_index = function Machine.M -> 0 | Machine.I -> 1 | Machine.F -> 2 | Machine.B -> 3 in
  let avail m = [| m.Machine.m_units; m.Machine.i_units; m.Machine.f_units; m.Machine.b_units |] in
  let per_cycle = ref (Array.init 32 (fun _ -> Array.make 5 0)) in
  let ensure cycle =
    let n = Array.length !per_cycle in
    if cycle >= n then begin
      let bigger = Array.init (max (cycle + 1) (2 * n)) (fun _ -> Array.make 5 0) in
      Array.blit !per_cycle 0 bigger 0 n;
      per_cycle := bigger
    end
  in
  let occupancy (op : Op.t) =
    match op.Op.opcode with
    | Op.Fdiv when machine.Machine.fdiv_unpipelined -> machine.Machine.lat_fdiv
    | _ -> 1
  in
  let fits op cycle =
    let k = kind_index (Machine.unit_of op) in
    let ok = ref true in
    for c = cycle to cycle + occupancy op - 1 do
      ensure c;
      let row = !per_cycle.(c) in
      if row.(k) >= (avail machine).(k) then ok := false;
      if c = cycle && row.(4) >= machine.Machine.issue_width then ok := false
    done;
    !ok
  in
  let reserve op cycle =
    let k = kind_index (Machine.unit_of op) in
    for c = cycle to cycle + occupancy op - 1 do
      ensure c;
      let row = !per_cycle.(c) in
      row.(k) <- row.(k) + 1;
      if c = cycle then row.(4) <- row.(4) + 1
    done
  in
  let body = loop.Loop.body in
  let n = Array.length body in
  let g = Deps.to_csr (Deps.build ~latency:(Machine.latency machine) loop) in
  let iter_succs0 v f =
    for s = g.Deps.succ_off.(v) to g.Deps.succ_off.(v + 1) - 1 do
      let e = g.Deps.succ_edge.(s) in
      if g.Deps.e_dist.(e) = 0 then f e
    done
  in
  let height = Array.make n 0 in
  let order = Array.make n 0 in
  let filled = ref 0 in
  let visited = Array.make n false in
  let rec visit v =
    if not visited.(v) then begin
      visited.(v) <- true;
      iter_succs0 v (fun e -> visit g.Deps.e_dst.(e));
      order.(!filled) <- v;
      incr filled
    end
  in
  for v = 0 to n - 1 do visit v done;
  for i = 0 to n - 1 do
    let v = order.(i) in
    let best = ref 0 in
    iter_succs0 v (fun e ->
        let cand = height.(g.Deps.e_dst.(e)) + g.Deps.e_lat.(e) in
        if cand > !best then best := cand);
    height.(v) <- !best
  done;
  let unscheduled_preds = Array.make n 0 in
  for e = 0 to g.Deps.n_edges - 1 do
    if g.Deps.e_dist.(e) = 0 then begin
      let d = g.Deps.e_dst.(e) in
      unscheduled_preds.(d) <- unscheduled_preds.(d) + 1
    end
  done;
  let assignment = Array.make n (-1) in
  let earliest = Array.make n 0 in
  let module Ready = Set.Make (struct
    type t = int * int * int
    let compare = compare
  end) in
  let ready = ref Ready.empty in
  for v = 0 to n - 1 do
    if unscheduled_preds.(v) = 0 then ready := Ready.add (-height.(v), v, 0) !ready
  done;
  let scheduled = ref 0 in
  while !scheduled < n do
    match Ready.min_elt_opt !ready with
    | None -> failwith "reference: dependence cycle in distance-0 graph"
    | Some ((_, v, _) as elt) ->
      ready := Ready.remove elt !ready;
      let cycle = ref earliest.(v) in
      while not (fits body.(v) !cycle) do incr cycle done;
      reserve body.(v) !cycle;
      assignment.(v) <- !cycle;
      incr scheduled;
      iter_succs0 v (fun e ->
          let d = g.Deps.e_dst.(e) in
          earliest.(d) <- max earliest.(d) (!cycle + g.Deps.e_lat.(e));
          unscheduled_preds.(d) <- unscheduled_preds.(d) - 1;
          if unscheduled_preds.(d) = 0 then ready := Ready.add (-height.(d), d, 0) !ready)
  done;
  (assignment, Array.fold_left (fun acc c -> max acc (c + 1)) 1 assignment)

let test_fuzz_machines_have_unpipelined_fdiv () =
  (* The equivalence property below relies on this to exercise occupancy
     above one cycle. *)
  Alcotest.(check bool) "some fuzz machine blocks its divider" true
    (Array.exists (fun m -> m.Machine.fdiv_unpipelined) Fuzz.Gen.machines)

(* Fuzz loops as generated and unrolled by the case's factor, on every
   fuzz machine. *)
let prop_list_sched_matches_reference =
  QCheck.Test.make ~count:150 ~name:"list schedule = Set-based reference, every fuzz machine"
    (QCheck.make
       QCheck.Gen.(
         let* seed = 0 -- 1000 in
         let* id = 0 -- 10000 in
         return (Fuzz.Gen.case ~seed ~id ())))
    (fun c ->
      let loop = c.Fuzz.Gen.loop in
      let factor = if Loop.unrollable loop then c.Fuzz.Gen.factor else 1 in
      let kernel = (Unroll.run loop factor).Unroll.kernel in
      List.for_all
        (fun l ->
          Array.for_all
            (fun m ->
              let s = List_sched.schedule m l in
              let assignment, length = reference_list_schedule m l in
              s.Schedule.assignment = assignment
              && s.Schedule.length = length
              && Schedule.validate s = Ok ())
            Fuzz.Gen.machines)
        [ loop; kernel ])

let suite =
  [
    ("list sched validates", `Quick, test_list_sched_validates);
    ("list sched res bound", `Quick, test_list_sched_respects_res_bound);
    ("list sched backedge last", `Quick, test_list_sched_backedge_last);
    ("list sched latency", `Quick, test_list_sched_latency_respected);
    ("list sched unrolled", `Quick, test_list_sched_unrolled_validates);
    ("list sched amortizes", `Quick, test_list_sched_amortizes);
    ("mii ddot", `Quick, test_mii_ddot);
    ("mii daxpy resource", `Quick, test_mii_daxpy_resource);
    ("modulo achieves mii", `Quick, test_modulo_achieves_mii_ddot);
    ("modulo validates", `Quick, test_modulo_validates);
    ("modulo refuses calls/exits", `Quick, test_modulo_refuses_calls_exits);
    ("modulo beats straight", `Quick, test_modulo_beats_straight_ddot);
    ("modulo pressure backoff", `Quick, test_modulo_register_pressure_backoff);
    ("modulo floor-rejects counter", `Quick, test_floor_rejects_counter);
    ("regalloc pressure", `Quick, test_pressure_positive);
    ("regalloc limits or spills", `Quick, test_allocate_within_limits_or_spills);
    ("regalloc spill code", `Quick, test_spill_code_inserted);
    ("regalloc lowers pressure", `Quick, test_spill_lowers_pressure);
    ("fuzz machines block the divider", `Quick, test_fuzz_machines_have_unpipelined_fdiv);
    QCheck_alcotest.to_alcotest prop_list_schedule_valid;
    QCheck_alcotest.to_alcotest prop_modulo_schedule_valid;
    QCheck_alcotest.to_alcotest prop_modulo_ii_at_least_mii;
    QCheck_alcotest.to_alcotest prop_floor_is_lower_bound;
    QCheck_alcotest.to_alcotest prop_over_floor_rejected;
    QCheck_alcotest.to_alcotest prop_list_sched_matches_reference;
  ]
