(* Span arithmetic of the benchmark's traced runs: self time is a span's
   duration minus the union of its children's intervals, and the root's
   inclusive time must equal the sum of all self times within 1%. *)

open Perfbench_spans

let span id parent start stop = { Spans.id; parent; name = Printf.sprintf "s%d" id; start; stop }
let close = Alcotest.(check (float 1e-9))

let self_of spans id =
  snd (List.find (fun ((s : Spans.span), _) -> s.Spans.id = id) (Spans.self_times spans))

let test_union () =
  close "empty" 0.0 (Spans.union_length []);
  close "disjoint" 3.0 (Spans.union_length [ (0.0, 1.0); (5.0, 7.0) ]);
  close "overlapping" 4.0 (Spans.union_length [ (1.0, 3.0); (0.0, 2.0); (5.0, 6.0) ]);
  close "nested" 10.0 (Spans.union_length [ (0.0, 10.0); (2.0, 3.0) ]);
  close "touching" 2.0 (Spans.union_length [ (0.0, 1.0); (1.0, 2.0) ])

let test_self_disjoint () =
  let spans = [ span 0 (-1) 0.0 10.0; span 1 0 1.0 3.0; span 2 0 5.0 6.0; span 3 1 1.5 2.0 ] in
  close "root" 7.0 (self_of spans 0);
  close "child with grandchild" 1.5 (self_of spans 1);
  close "leaf" 1.0 (self_of spans 2);
  close "grandchild" 0.5 (self_of spans 3)

let test_self_overlap () =
  (* Children [1,3] and [2,5] cover 4 s of the root, not 5. *)
  let spans = [ span 0 (-1) 0.0 10.0; span 1 0 1.0 3.0; span 2 0 2.0 5.0 ] in
  close "root subtracts the union" 6.0 (self_of spans 0)

let test_self_clipped () =
  let spans = [ span 0 (-1) 0.0 4.0; span 1 0 3.0 6.0 ] in
  close "child clipped to parent" 3.0 (self_of spans 0)

let check_ok name spans =
  match Spans.check_root spans with
  | Ok (incl, sum) -> Alcotest.(check bool) name true (Float.abs (sum -. incl) <= 0.01 *. incl)
  | Error e -> Alcotest.failf "%s: %s" name e

let check_error name spans =
  match Spans.check_root spans with
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error _ -> ()

let test_root_check () =
  check_ok "exact tree"
    [ span 0 (-1) 0.0 100.0; span 1 0 0.0 50.0; span 2 1 10.0 20.0; span 3 0 60.0 70.0 ];
  (* Overlapping siblings make the self times sum past the root: 0.5% is
     inside the tolerance, 2% is not. *)
  check_ok "0.5% over" [ span 0 (-1) 0.0 100.0; span 1 0 0.0 50.0; span 2 0 49.5 60.0 ];
  check_error "2% over" [ span 0 (-1) 0.0 100.0; span 1 0 0.0 50.0; span 2 0 48.0 60.0 ];
  check_error "two roots" [ span 0 (-1) 0.0 1.0; span 1 (-1) 1.0 2.0 ];
  check_error "no spans" []

let test_recorder () =
  let t = Spans.create () in
  let r =
    Spans.with_span t "outer" (fun () ->
        ignore (Spans.with_span t "inner" (fun () -> 1));
        Spans.with_span t ~rename:(fun x -> if x > 0 then "ok" else "fail") "try" (fun () -> 2))
  in
  Alcotest.(check int) "result" 2 r;
  let spans = Spans.spans t in
  Alcotest.(check (list string)) "names in open order" [ "outer"; "inner"; "ok" ]
    (List.map (fun (s : Spans.span) -> s.Spans.name) spans);
  Alcotest.(check (list int)) "parents" [ -1; 0; 0 ]
    (List.map (fun (s : Spans.span) -> s.Spans.parent) spans);
  (match Spans.check_root spans with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (try Spans.with_span t "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raising span recorded" 4 (List.length (Spans.spans t));
  let off = Spans.create ~enabled:false () in
  Alcotest.(check int) "disabled runs f" 3 (Spans.with_span off "x" (fun () -> 3));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off))

let test_chrome () =
  let spans = [ span 0 (-1) 1.0 2.0; { (span 1 0 1.25 1.5) with Spans.name = "a\"b" } ] in
  let json = Spans.to_chrome spans in
  let count sub =
    let n = String.length sub and c = ref 0 in
    for i = 0 to String.length json - n do
      if String.sub json i n = sub then incr c
    done;
    !c
  in
  Alcotest.(check int) "one event per span" 2 (count "\"ph\":\"X\"");
  Alcotest.(check int) "name escaped" 1 (count "\"a\\\"b\"");
  Alcotest.(check int) "child offset in us" 1 (count "\"ts\":250000.000,\"dur\":250000.000")

let () =
  Alcotest.run "perfbench spans"
    [
      ( "spans",
        [
          Alcotest.test_case "union length" `Quick test_union;
          Alcotest.test_case "self time, disjoint children" `Quick test_self_disjoint;
          Alcotest.test_case "self time, overlapping children" `Quick test_self_overlap;
          Alcotest.test_case "self time, clipped child" `Quick test_self_clipped;
          Alcotest.test_case "root equals sum of self" `Quick test_root_check;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
          Alcotest.test_case "chrome trace" `Quick test_chrome;
        ] );
    ]
