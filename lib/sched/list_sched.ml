let kind_index = function Machine.M -> 0 | Machine.I -> 1 | Machine.F -> 2 | Machine.B -> 3

(* Cycles an op occupies its unit: unpipelined divides block the unit. *)
let occupancy m (op : Op.t) =
  match op.Op.opcode with
  | Op.Fdiv when m.Machine.fdiv_unpipelined -> m.Machine.lat_fdiv
  | _ -> 1

(* Per-cycle resource use, indexed by absolute cycle: one flat int array
   with [width] counters per cycle, the four unit kinds then the issue
   total. *)
let width = 5
let issue = 4

(* Binary min-heap of body positions under [before], a strict total order,
   so pops follow the order's minimum exactly. *)
type heap = { items : int array; mutable size : int }

let push h before v =
  let a = h.items in
  let rec up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if before v a.(p) then begin
        a.(i) <- a.(p);
        up p
      end
      else a.(i) <- v
    end
    else a.(i) <- v
  in
  up h.size;
  h.size <- h.size + 1

let pop h before =
  let a = h.items in
  let top = a.(0) in
  h.size <- h.size - 1;
  let last = a.(h.size) in
  let rec down i =
    let l = (2 * i) + 1 in
    if l >= h.size then a.(i) <- last
    else begin
      let c = if l + 1 < h.size && before a.(l + 1) a.(l) then l + 1 else l in
      if before a.(c) last then begin
        a.(i) <- a.(c);
        down c
      end
      else a.(i) <- last
    end
  in
  if h.size > 0 then down 0;
  top

let schedule ?memo machine (loop : Loop.t) =
  let body = loop.Loop.body in
  let n = Array.length body in
  let g = (Deps_memo.get ?memo machine loop).Deps_memo.csr in
  (* All walks below are over the distance-0 subgraph (the per-iteration
     DAG), reading the CSR arrays directly. *)
  let iter_succs0 v f =
    for s = g.Deps.succ_off.(v) to g.Deps.succ_off.(v + 1) - 1 do
      let e = g.Deps.succ_edge.(s) in
      if g.Deps.e_dist.(e) = 0 then f e
    done
  in
  (* Heights: latency-weighted longest path to a sink over distance-0
     edges, computed sinks-first over a reverse topological order. *)
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
  (* [order] holds sinks first. *)
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
  let avail =
    Machine.[| machine.m_units; machine.i_units; machine.f_units; machine.b_units |]
  in
  let issue_width = machine.Machine.issue_width in
  let res = ref (Array.make (32 * width) 0) in
  let ensure cycle =
    let len = Array.length !res in
    if (cycle + 1) * width > len then begin
      let bigger = Array.make (max ((cycle + 1) * width) (2 * len)) 0 in
      Array.blit !res 0 bigger 0 len;
      res := bigger
    end
  in
  (* Only the issue cycle consumes issue width; the unit is held for the
     op's whole occupancy. *)
  let fits k occ cycle =
    ensure (cycle + occ - 1);
    let r = !res in
    let rec unit_free c =
      c >= cycle + occ || (r.((c * width) + k) < avail.(k) && unit_free (c + 1))
    in
    r.((cycle * width) + issue) < issue_width && unit_free cycle
  in
  let reserve k occ cycle =
    let r = !res in
    for c = cycle to cycle + occ - 1 do
      r.((c * width) + k) <- r.((c * width) + k) + 1
    done;
    r.((cycle * width) + issue) <- r.((cycle * width) + issue) + 1
  in
  (* Greater height first, then lower body position. *)
  let before a b = height.(a) > height.(b) || (height.(a) = height.(b) && a < b) in
  let ready = { items = Array.make (max n 1) 0; size = 0 } in
  for v = 0 to n - 1 do
    if unscheduled_preds.(v) = 0 then push ready before v
  done;
  for _ = 1 to n do
    if ready.size = 0 then failwith "List_sched: dependence cycle in distance-0 graph";
    let v = pop ready before in
    let k = kind_index (Machine.unit_of body.(v)) and occ = occupancy machine body.(v) in
    let cycle = ref earliest.(v) in
    while not (fits k occ !cycle) do incr cycle done;
    reserve k occ !cycle;
    assignment.(v) <- !cycle;
    iter_succs0 v (fun e ->
        let d = g.Deps.e_dst.(e) in
        earliest.(d) <- max earliest.(d) (!cycle + g.Deps.e_lat.(e));
        unscheduled_preds.(d) <- unscheduled_preds.(d) - 1;
        if unscheduled_preds.(d) = 0 then push ready before d)
  done;
  let length = Array.fold_left (fun acc c -> max acc (c + 1)) 1 assignment in
  {
    Schedule.loop;
    machine;
    assignment;
    length;
    kind = Schedule.Straight;
    spills = 0;
    int_pressure = 0;
    fp_pressure = 0;
    csr = g;
  }
