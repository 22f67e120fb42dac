let m_wakes = Obs.Metrics.counter "runtime.loop.wakes"

let wait fds ~until =
  (* A negative select timeout blocks. select truncates to whole
     microseconds, so one is added: a deadline wake never lands just
     short of [until] and then has to wait again. *)
  let timeout =
    if until = infinity then -1.0
    else Float.max 0.0 (until -. Unix.gettimeofday () +. 1e-6)
  in
  let readable =
    match Unix.select fds [] [] timeout with
    | readable, _, _ -> readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  Obs.Metrics.incr m_wakes;
  readable
