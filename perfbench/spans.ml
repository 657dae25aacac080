type span = { id : int; parent : int; name : string; start : float; stop : float }

type t = {
  enabled : bool;
  mutable closed : span list; (* newest first *)
  mutable stack : int list;
  mutable next_id : int;
}

let create ?(enabled = true) () = { enabled; closed = []; stack = []; next_id = 0 }
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let with_span t ?rename name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    let close name =
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.closed <- { id; parent; name; start; stop } :: t.closed
    in
    match f () with
    | r ->
      close (match rename with Some g -> g r | None -> name);
      r
    | exception e ->
      close name;
      raise e
  end

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

let union_length intervals =
  let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) intervals) in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, Float.max cb b)) rest
        else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None sorted

let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let covered =
        union_length
          (List.map
             (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
             (Hashtbl.find_all children s.id))
      in
      (s, s.stop -. s.start -. covered))
    spans

type stat = { count : int; inclusive : float; self : float }

let by_name spans =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (s, self) ->
      let st =
        match Hashtbl.find_opt tbl s.name with
        | Some st -> st
        | None ->
          order := s.name :: !order;
          { count = 0; inclusive = 0.0; self = 0.0 }
      in
      Hashtbl.replace tbl s.name
        {
          count = st.count + 1;
          inclusive = st.inclusive +. (s.stop -. s.start);
          self = st.self +. self;
        })
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* The root's duration and the sum of self times may differ by 1% of the
   root's duration. *)
let tolerance = 0.01

let check_root spans =
  match List.filter (fun s -> s.parent < 0) spans with
  | [ root ] ->
    let inclusive = root.stop -. root.start in
    let sum = List.fold_left (fun acc (_, self) -> acc +. self) 0.0 (self_times spans) in
    if Float.abs (sum -. inclusive) <= tolerance *. inclusive then Ok (inclusive, sum)
    else
      Error
        (Printf.sprintf "root %s: inclusive %.6fs but self times sum to %.6fs" root.name
           inclusive sum)
  | roots -> Error (Printf.sprintf "expected one root span, found %d" (List.length roots))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_chrome spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity spans in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}"
           (json_string s.name)
           ((s.start -. t0) *. 1e6)
           ((s.stop -. s.start) *. 1e6)))
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
