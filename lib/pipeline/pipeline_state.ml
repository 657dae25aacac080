type executable = {
  schedules : (Schedule.t * int * int) list;
  unroll_factor : int;
  total_code_bytes : int;
  outer_trip : int;
  exit_prob : float;
  entry_extra_cycles : int;
  total_spills : int;
}

type state = {
  machine : Machine.t;
  swp : bool;
  factor : int;
  source : Loop.t;
  deps_memo : Deps_memo.t;
  unrolled : Unroll.t option;
  kernel_sched : Schedule.t option;
  remainder_sched : Schedule.t option;
  exe : executable option;
}

let init machine ~swp source factor =
  {
    machine;
    swp;
    factor;
    source;
    deps_memo = Deps_memo.global;
    unrolled = None;
    kernel_sched = None;
    remainder_sched = None;
    exe = None;
  }

let executable_exn st =
  match st.exe with
  | Some exe -> exe
  | None -> invalid_arg "Pipeline_state.executable_exn: assemble pass has not run"
