(* Tests for the differential-fuzzing subsystem: directed remainder-loop
   regressions, campaign determinism across jobs settings, generator and
   oracle coverage, shrinker soundness, and compile-cache digest
   uniqueness under fuzzed loops. *)

let machine = Machine.itanium2

(* --- directed remainder-loop regressions -------------------------------- *)

(* Trip counts straddling the unroll factor — 0, 1, factor−1, factor,
   factor+1 — with the trip both known and unknown at compile time.  The
   trip-0 × factor-1 and trip-0 × dynamic cells are the exact
   configurations where the assembler's effective-trip clamp used to
   execute a phantom iteration. *)
let test_remainder_edges () =
  List.iter
    (fun factor ->
      List.iter
        (fun trip ->
          List.iter
            (fun dynamic ->
              let loop =
                Fuzz.Gen.with_exact_trip ~dynamic
                  (Kernels.daxpy ~name:(Printf.sprintf "re%d_%d" factor trip) ~trip:(max trip 1))
                  trip
              in
              let exe = Pipeline.compile machine ~swp:false loop factor in
              let st0 = Interp.fresh_state () in
              ignore (Interp.run st0 loop ~trips:trip ~phase:0);
              let st1 = Interp.fresh_state () in
              Fuzz.Oracle.run_exe st1 exe;
              if not (Fuzz.Oracle.equivalent_modulo_spills exe st0 st1 loop.Loop.live_out)
              then
                Alcotest.failf "factor %d trip %d dynamic %b: compiled loop diverges"
                  factor trip dynamic)
            [ false; true ])
        [ 0; 1; max 0 (factor - 1); factor; factor + 1 ])
    [ 1; 2; 3; 5; 8 ]

(* --- oracle property over generated cases ------------------------------- *)

let prop_no_violations =
  QCheck.Test.make ~count:60 ~name:"every oracle holds on generated cases"
    QCheck.(make Gen.(0 -- 3000))
    (fun id ->
      let case = Fuzz.Gen.case ~seed:42 ~id () in
      let outcome = Fuzz.Oracle.run_case case in
      match outcome.Fuzz.Oracle.violations with
      | [] -> true
      | (oracle, detail) :: _ ->
        QCheck.Test.fail_reportf "case %d violates %s: %s" id oracle detail)

(* --- campaign: determinism, coverage, digests --------------------------- *)

let campaign = lazy (Fuzz.Driver.run ~jobs:2 ~telemetry:(Telemetry.create ()) ~budget:48 ~seed:42 ())

let test_campaign_clean () =
  let r = Lazy.force campaign in
  Alcotest.(check int) "no crashes" 0 (List.length r.Fuzz.Driver.crashes);
  Alcotest.(check int) "no digest collisions" 0 (List.length r.Fuzz.Driver.digest_collisions)

let test_campaign_coverage () =
  let r = Lazy.force campaign in
  List.iter
    (fun kind ->
      let n = Option.value (List.assoc_opt kind r.Fuzz.Driver.op_coverage) ~default:0 in
      if n = 0 then Alcotest.failf "op kind %s never generated" kind)
    Fuzz.Gen.op_kinds;
  List.iter
    (fun name ->
      let n = Option.value (List.assoc_opt name r.Fuzz.Driver.oracle_runs) ~default:0 in
      if n = 0 then Alcotest.failf "oracle %s never exercised" name)
    Fuzz.Oracle.oracle_names

let test_campaign_jobs_invariant () =
  let run jobs =
    Fuzz.Driver.run ~jobs ~telemetry:(Telemetry.create ()) ~budget:16 ~seed:7 ()
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "reports bit-identical at jobs 1 vs 4" true (a = b)

let test_cache_keys_distinct_across_cases () =
  (* Distinct generated cases must digest to distinct compile-cache keys:
     a collision would silently serve one loop's schedules for another. *)
  let seen = Hashtbl.create 256 in
  for id = 0 to 150 do
    let c = Fuzz.Gen.case ~seed:42 ~id () in
    let key =
      Compile_cache.key ~machine:c.Fuzz.Gen.machine ~swp:c.Fuzz.Gen.swp
        ~factor:c.Fuzz.Gen.factor c.Fuzz.Gen.loop
    in
    let content =
      (c.Fuzz.Gen.machine.Machine.mach_name, c.Fuzz.Gen.swp, c.Fuzz.Gen.factor,
       { c.Fuzz.Gen.loop with Loop.name = "" })
    in
    match Hashtbl.find_opt seen key with
    | Some other when other <> content -> Alcotest.failf "digest collision at case %d" id
    | _ -> Hashtbl.replace seen key content
  done

(* --- generator ----------------------------------------------------------- *)

let test_generated_loops_validate () =
  for id = 0 to 200 do
    let c = Fuzz.Gen.case ~seed:11 ~id () in
    match Loop.validate c.Fuzz.Gen.loop with
    | Ok () -> ()
    | Error e -> Alcotest.failf "case %d: %s" id e
  done

let test_generation_deterministic () =
  for id = 0 to 50 do
    let a = Fuzz.Gen.case ~seed:42 ~id () and b = Fuzz.Gen.case ~seed:42 ~id () in
    if a <> b then Alcotest.failf "case %d differs between identical draws" id
  done

let test_adversarial_trips_hit_edges () =
  (* Over a modest sample, the trip distribution must actually produce the
     boundary values the generator exists to produce. *)
  let rng = Rng.create 3 in
  let factor = 4 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 500 do
    Hashtbl.replace seen (Fuzz.Gen.adversarial_trip rng ~factor) ()
  done;
  List.iter
    (fun t ->
      if not (Hashtbl.mem seen t) then Alcotest.failf "trip %d never drawn" t)
    [ 0; 1; factor - 1; factor; factor + 1 ]

(* --- shrinker ------------------------------------------------------------ *)

let test_shrink_minimises () =
  (* Predicate: the loop still contains an integer multiply.  The shrinker
     should strip everything else and keep a valid loop that satisfies it. *)
  let has_imul (l : Loop.t) =
    Array.exists (fun (op : Op.t) -> op.Op.opcode = Op.Imul) l.Loop.body
  in
  let c = Fuzz.Gen.case ~seed:42 ~id:2 () in
  let loop = c.Fuzz.Gen.loop in
  Alcotest.(check bool) "seed case qualifies" true (has_imul loop);
  let shrunk = Fuzz.Shrink.shrink has_imul loop in
  Alcotest.(check bool) "shrunk still qualifies" true (has_imul shrunk);
  Alcotest.(check bool) "shrunk validates" true (Loop.validate shrunk = Ok ());
  Alcotest.(check bool) "body did not grow" true
    (Array.length shrunk.Loop.body <= Array.length loop.Loop.body);
  Alcotest.(check bool) "trip reduced to the floor" true (shrunk.Loop.trip_actual <= 1);
  (* overhead trio + the imul is the smallest qualifying body *)
  Alcotest.(check int) "only the witness op survives" 4 (Array.length shrunk.Loop.body)

let test_shrink_passing_input_unchanged () =
  let c = Fuzz.Gen.case ~seed:42 ~id:5 () in
  let shrunk = Fuzz.Shrink.shrink (fun _ -> false) c.Fuzz.Gen.loop in
  Alcotest.(check bool) "non-failing loop returned as-is" true (shrunk == c.Fuzz.Gen.loop)

(* --- corpus serialisation ------------------------------------------------ *)

let test_repro_roundtrip () =
  let c = Fuzz.Gen.case ~seed:42 ~id:13 () in
  let text = Fuzz.Driver.repro_to_string c ~oracle:"unroll-interp" in
  match Fuzz.Driver.parse_repro text with
  | Error e -> Alcotest.failf "repro did not parse: %s" e
  | Ok { rcase; roracle } ->
    Alcotest.(check (option string)) "oracle header" (Some "unroll-interp") roracle;
    Alcotest.(check int) "factor" c.Fuzz.Gen.factor rcase.Fuzz.Gen.factor;
    Alcotest.(check bool) "swp" c.Fuzz.Gen.swp rcase.Fuzz.Gen.swp;
    Alcotest.(check bool) "rle" c.Fuzz.Gen.rle rcase.Fuzz.Gen.rle;
    Alcotest.(check string) "machine" c.Fuzz.Gen.machine.Machine.mach_name
      rcase.Fuzz.Gen.machine.Machine.mach_name;
    Alcotest.(check bool) "loop survives structurally" true
      (Fuzz.Oracle.structurally_equal c.Fuzz.Gen.loop rcase.Fuzz.Gen.loop)

let suite =
  [
    ("remainder-loop edge cases, factors x trips x static/dynamic", `Quick, test_remainder_edges);
    QCheck_alcotest.to_alcotest prop_no_violations;
    ("campaign finds no crashes or collisions", `Slow, test_campaign_clean);
    ("campaign covers every op kind and oracle", `Slow, test_campaign_coverage);
    ("campaign report invariant across jobs", `Slow, test_campaign_jobs_invariant);
    ("cache digests distinct across fuzzed cases", `Quick, test_cache_keys_distinct_across_cases);
    ("generated loops validate", `Quick, test_generated_loops_validate);
    ("generation is deterministic", `Quick, test_generation_deterministic);
    ("adversarial trips hit the factor boundary", `Quick, test_adversarial_trips_hit_edges);
    ("shrinker minimises to the witness", `Quick, test_shrink_minimises);
    ("shrinker leaves passing loops alone", `Quick, test_shrink_passing_input_unchanged);
    ("reproducer serialisation round-trips", `Quick, test_repro_roundtrip);
  ]
