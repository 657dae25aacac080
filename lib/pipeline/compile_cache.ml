type key = string

(* Bounded oldest-first: entries remember their insertion order through a
   queue; when over capacity the head is dropped.  Re-insertions of a live
   key are no-ops, so the queue never holds stale duplicates. *)
let capacity = 262144

type t = {
  mutex : Mutex.t;
  table : (string, int) Hashtbl.t;
  fifo : string Queue.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    fifo = Queue.create ();
    hit_count = 0;
    miss_count = 0;
  }

let global = create ()

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let key ~machine ~swp ~factor (loop : Loop.t) =
  (* Content address: the name does not participate, so structurally
     identical loops share measurements.  Marshal covers every field of
     both records (pure data, no closures). *)
  Digest.string
    (Marshal.to_string ({ loop with Loop.name = "" }, factor, swp, machine) [])

let cycles_key k ~max_sim_iters =
  k ^ ":" ^ (match max_sim_iters with Some n -> string_of_int n | None -> "d")

let find_cycles t k ~max_sim_iters =
  locked t (fun () ->
      let r = Hashtbl.find_opt t.table (cycles_key k ~max_sim_iters) in
      if r <> None then begin
        t.hit_count <- t.hit_count + 1;
        Telemetry.incr Telemetry.global ~pass:"compile-cache" "hits" 1
      end
      else begin
        t.miss_count <- t.miss_count + 1;
        Telemetry.incr Telemetry.global ~pass:"compile-cache" "misses" 1
      end;
      r)

let store_cycles t k ~max_sim_iters c =
  let k = cycles_key k ~max_sim_iters in
  locked t (fun () ->
      if not (Hashtbl.mem t.table k) then begin
        if Hashtbl.length t.table >= capacity then Hashtbl.remove t.table (Queue.pop t.fifo);
        Hashtbl.add t.table k c;
        Queue.push k t.fifo
      end)

let hits t = locked t (fun () -> t.hit_count)
let misses t = locked t (fun () -> t.miss_count)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.fifo;
      t.hit_count <- 0;
      t.miss_count <- 0)
