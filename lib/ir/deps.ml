type kind =
  | Reg_flow
  | Reg_anti
  | Reg_output
  | Mem_flow
  | Mem_anti
  | Mem_output
  | Control
  | Serial

type edge = { src : int; dst : int; dkind : kind; latency : int; distance : int }

type t = {
  n : int;
  edges : edge list;
  succs : edge list array;
  preds : edge list array;
}

let mem_flow_latency = 2
let mem_anti_latency = 0
let mem_output_latency = 1

let cls_code = function Op.Int -> 0 | Op.Flt -> 1

(* The order of polymorphic [compare] on [Op.reg]: id, then Int before Flt. *)
let compare_reg (a : Op.reg) (b : Op.reg) =
  let c = Int.compare a.Op.id b.Op.id in
  if c <> 0 then c else Int.compare (cls_code a.Op.cls) (cls_code b.Op.cls)

(* Per-op register reads, folding the guard predicate in as a read of the
   integer register that the defining Cmp wrote. *)
let reads_of op =
  let pred_reads =
    match op.Op.pred with
    | Some p -> [ { Op.id = p; cls = Op.Int } ]
    | None -> []
  in
  List.sort_uniq compare_reg (Op.uses op @ pred_reads)

(* Register dependences from a dense def table.  A register's slot is
   [(id - lo) * 2 + class], which orders slots exactly as [compare_reg]
   orders registers; a counting sort lays out each slot's def positions in
   ascending body order, and binary search finds the reaching and the next
   def of a use.  The edge order is part of [build]'s contract
   (deps.mli): CSR edge indices follow it. *)
let register_edges ~latency body =
  let n = Array.length body in
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun op ->
      match op.Op.dst with
      | Some r ->
        if r.Op.id < !lo then lo := r.Op.id;
        if r.Op.id > !hi then hi := r.Op.id
      | None -> ())
    body;
  if !lo > !hi then []
  else begin
    let lo = !lo and span = !hi - !lo + 1 in
    let slots = span * 2 in
    let slot (r : Op.reg) = ((r.Op.id - lo) * 2) + cls_code r.Op.cls in
    (* [first.(s)] .. [first.(s+1) - 1] index slot [s]'s defs in [pos]. *)
    let first = Array.make (slots + 1) 0 in
    Array.iter
      (fun op ->
        match op.Op.dst with
        | Some r -> first.(slot r + 1) <- first.(slot r + 1) + 1
        | None -> ())
      body;
    for s = 1 to slots do
      first.(s) <- first.(s) + first.(s - 1)
    done;
    let pos = Array.make first.(slots) 0 in
    let cursor = Array.sub first 0 slots in
    Array.iteri
      (fun i op ->
        match op.Op.dst with
        | Some r ->
          let s = slot r in
          pos.(cursor.(s)) <- i;
          cursor.(s) <- cursor.(s) + 1
        | None -> ())
      body;
    (* First index in [a, b) whose def position exceeds [u] ([b] if none). *)
    let rec above u a b =
      if a >= b then a
      else
        let mid = (a + b) / 2 in
        if pos.(mid) > u then above u a mid else above u (mid + 1) b
    in
    let edges = ref [] in
    let add src dst dkind latency distance =
      if not (src = dst && distance = 0) then
        edges := { src; dst; dkind; latency; distance } :: !edges
    in
    (* Flow and anti dependences, per use. *)
    for u = 0 to n - 1 do
      List.iter
        (fun (r : Op.reg) ->
          let k = r.Op.id - lo in
          if k >= 0 && k < span then begin
            let s = slot r in
            let a = first.(s) and b = first.(s + 1) in
            if a < b then begin
              (* Reaching def: nearest def strictly before [u], else the last
                 def of the previous iteration. *)
              let j = above (u - 1) a b in
              let d, dist = if j > a then (pos.(j - 1), 0) else (pos.(b - 1), 1) in
              add d u Reg_flow (latency body.(d)) dist;
              (* Anti: the next def after [u] must wait, else the first def
                 of the next iteration. *)
              let j = above u j b in
              if j < b then add u pos.(j) Reg_anti 0 0 else add u pos.(a) Reg_anti 0 1
            end
          end)
        (reads_of body.(u))
    done;
    (* Output dependences between successive defs of the same register. *)
    for s = 0 to slots - 1 do
      let a = first.(s) and b = first.(s + 1) in
      if b - a >= 2 then begin
        for j = a to b - 2 do
          add pos.(j) pos.(j + 1) Reg_output 1 0
        done;
        add pos.(b - 1) pos.(a) Reg_output 1 1
      end
    done;
    !edges
  end

(* Memory disambiguation for one ordered pair of references.  Returns the
   dependence direction and distance, or [None] when they provably never
   alias. *)
type alias = No_alias | Same_iter | A_then_b of int | B_then_a of int | Unknown

let classify_pair ~aliased (a : Op.mref) (b : Op.mref) =
  match (a.Op.mkind, b.Op.mkind) with
  | Op.Indirect, _ | _, Op.Indirect -> Unknown
  | Op.Direct, Op.Direct ->
    if a.Op.array <> b.Op.array then (if aliased then Unknown else No_alias)
    else if a.Op.stride = b.Op.stride then begin
      if a.Op.stride = 0 then if a.Op.offset = b.Op.offset then Same_iter else No_alias
      else
        let diff = a.Op.offset - b.Op.offset in
        if diff mod a.Op.stride <> 0 then No_alias
        else
          let d = diff / a.Op.stride in
          if d = 0 then Same_iter else if d > 0 then A_then_b d else B_then_a (-d)
    end
    else Unknown

let mem_kind_of src_is_store dst_is_store =
  match (src_is_store, dst_is_store) with
  | true, false -> (Mem_flow, mem_flow_latency)
  | false, true -> (Mem_anti, mem_anti_latency)
  | true, true -> (Mem_output, mem_output_latency)
  | false, false -> assert false

let memory_edges ~aliased body =
  let n = Array.length body in
  let mem_positions = ref [] in
  for i = n - 1 downto 0 do
    if Op.is_memory body.(i) then mem_positions := i :: !mem_positions
  done;
  let edges = ref [] in
  let add src dst src_store dst_store distance =
    let dkind, latency = mem_kind_of src_store dst_store in
    edges := { src; dst; dkind; latency; distance } :: !edges
  in
  let pairs = !mem_positions in
  List.iteri
    (fun ia pa ->
      List.iteri
        (fun ib pb ->
          if ib > ia then begin
            let a = body.(pa) and b = body.(pb) in
            let sa = Op.is_store a and sb = Op.is_store b in
            if sa || sb then
              match (Op.mref a, Op.mref b) with
              | Some ra, Some rb -> begin
                match classify_pair ~aliased ra rb with
                | No_alias -> ()
                | Same_iter ->
                  add pa pb sa sb 0;
                  (* A stride-0 pair hits the same address every iteration,
                     so the later op also feeds the earlier one next time. *)
                  if ra.Op.stride = 0 then add pb pa sb sa 1
                | A_then_b d -> add pa pb sa sb d
                | B_then_a d -> add pb pa sb sa d
                | Unknown ->
                  (* Conservative: order within the iteration and forbid
                     reordering across one iteration in either direction. *)
                  add pa pb sa sb 0;
                  add pb pa sb sa 1
              end
              | _ -> assert false
          end)
        pairs)
    pairs;
  !edges

let control_edges body =
  let n = Array.length body in
  let edges = ref [] in
  for e = 0 to n - 1 do
    match body.(e).Op.opcode with
    | Op.Br Op.Exit ->
      for j = e + 1 to n - 1 do
        edges := { src = e; dst = j; dkind = Control; latency = 0; distance = 0 } :: !edges
      done
    | _ -> ()
  done;
  !edges

let serial_edges body =
  let n = Array.length body in
  let edges = ref [] in
  (* Calls serialise against everything around them. *)
  for c = 0 to n - 1 do
    match body.(c).Op.opcode with
    | Op.Call ->
      for j = 0 to n - 1 do
        if j < c then
          edges := { src = j; dst = c; dkind = Serial; latency = 1; distance = 0 } :: !edges
        else if j > c then
          edges := { src = c; dst = j; dkind = Serial; latency = 1; distance = 0 } :: !edges
      done
    | _ -> ()
  done;
  (* The backedge delimits the iteration: nothing may schedule after it. *)
  Array.iteri
    (fun i op ->
      match op.Op.opcode with
      | Op.Br Op.Backedge ->
        for j = 0 to n - 1 do
          if j <> i then
            edges := { src = j; dst = i; dkind = Serial; latency = 0; distance = 0 } :: !edges
        done
      | _ -> ())
    body;
  !edges

let build ~latency (loop : Loop.t) =
  let body = loop.Loop.body in
  let n = Array.length body in
  let edges =
    register_edges ~latency body
    @ memory_edges ~aliased:loop.Loop.aliased body
    @ control_edges body
    @ serial_edges body
  in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  List.iter
    (fun e ->
      succs.(e.src) <- e :: succs.(e.src);
      preds.(e.dst) <- e :: preds.(e.dst))
    edges;
  { n; edges; succs; preds }

(* Flat int-array (CSR) view of the graph.  The hot fixpoints — modulo
   scheduling's [feasible_ii]/[heights] and the simulator's slack pass —
   iterate these arrays instead of chasing [edge] records through lists.
   Edge indices follow [t.edges] order, so the CSR and the list views
   describe the same edge with the same index. *)

let kind_code = function
  | Reg_flow -> 0
  | Reg_anti -> 1
  | Reg_output -> 2
  | Mem_flow -> 3
  | Mem_anti -> 4
  | Mem_output -> 5
  | Control -> 6
  | Serial -> 7

let serial_code = kind_code Serial
let reg_flow_code = kind_code Reg_flow

type csr = {
  csr_n : int;
  n_edges : int;
  e_src : int array;
  e_dst : int array;
  e_kind : int array;     (* kind_code *)
  e_lat : int array;
  e_dist : int array;
  succ_off : int array;   (* n+1 offsets into succ_edge *)
  succ_edge : int array;  (* edge indices grouped by source *)
  pred_off : int array;
  pred_edge : int array;
}

let to_csr t =
  let n = t.n in
  let m = List.length t.edges in
  let e_src = Array.make m 0
  and e_dst = Array.make m 0
  and e_kind = Array.make m 0
  and e_lat = Array.make m 0
  and e_dist = Array.make m 0 in
  List.iteri
    (fun i e ->
      e_src.(i) <- e.src;
      e_dst.(i) <- e.dst;
      e_kind.(i) <- kind_code e.dkind;
      e_lat.(i) <- e.latency;
      e_dist.(i) <- e.distance)
    t.edges;
  (* Counting sort of edge indices by endpoint, preserving edge order
     within each group. *)
  let group key =
    let off = Array.make (n + 1) 0 in
    for i = 0 to m - 1 do
      off.(key.(i) + 1) <- off.(key.(i) + 1) + 1
    done;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let idx = Array.make m 0 in
    let cursor = Array.copy off in
    for i = 0 to m - 1 do
      let v = key.(i) in
      idx.(cursor.(v)) <- i;
      cursor.(v) <- cursor.(v) + 1
    done;
    (off, idx)
  in
  let succ_off, succ_edge = group e_src in
  let pred_off, pred_edge = group e_dst in
  {
    csr_n = n;
    n_edges = m;
    e_src;
    e_dst;
    e_kind;
    e_lat;
    e_dist;
    succ_off;
    succ_edge;
    pred_off;
    pred_edge;
  }

let intra_iteration t =
  let edges = List.filter (fun e -> e.distance = 0) t.edges in
  let succs = Array.make t.n [] in
  let preds = Array.make t.n [] in
  List.iter
    (fun e ->
      succs.(e.src) <- e :: succs.(e.src);
      preds.(e.dst) <- e :: preds.(e.dst))
    edges;
  { n = t.n; edges; succs; preds }

let has_cycle_at_distance_zero t =
  let color = Array.make t.n 0 in
  (* 0 = white, 1 = grey, 2 = black *)
  let cyclic = ref false in
  let rec visit v =
    if color.(v) = 1 then cyclic := true
    else if color.(v) = 0 then begin
      color.(v) <- 1;
      List.iter (fun e -> if e.distance = 0 then visit e.dst) t.succs.(v);
      color.(v) <- 2
    end
  in
  for v = 0 to t.n - 1 do
    if not !cyclic then visit v
  done;
  !cyclic
