(* Dependence graphs, built per call and never retained; deps_memo.mli
   says why the rest of the surface is still here. *)

type entry = { deps : Deps.t; csr : Deps.csr }

type t = unit

let global = ()

let get ?memo:_ machine loop =
  Telemetry.incr Telemetry.global ~pass:"deps-memo" "misses" 1;
  let deps = Deps.build ~latency:(Machine.latency machine) loop in
  { deps; csr = Deps.to_csr deps }

let deps ?memo machine loop = (get ?memo machine loop).deps

let clear () = ()
