(* Server lifecycle for the benchmark: spawn ns-serve, wait for the
   first pong, and always SIGTERM and reap it.

   Readiness is the first pong, not the socket file: the server binds
   before it listens, so a connect can see ENOENT (no file yet) or
   ECONNREFUSED (bound, not listening) and both are retried. Every
   spawned server is registered, and [stop_all] (run from [at_exit]
   and from the signal handlers) terminates whatever is still alive,
   so a failing run never leaves an orphan behind. *)

type server = {
  pid : int;
  socket : string;
  mutable reaped : bool;
}

let live : server list ref = ref []

let now = Benchkit.Stats.now

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)

(* SIGTERM, up to [grace] seconds for the drain, then SIGKILL; always
   reaps. Returns the exit status. *)
let stop ?(grace = 5.0) s =
  if s.reaped then Unix.WEXITED 0
  else begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. grace in
    let rec wait () =
      match waitpid_nohang s.pid with
      | Some st -> st
      | None when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
      | None ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        let rec reap () =
          match Unix.waitpid [] s.pid with
          | _, st -> st
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
          | exception Unix.Unix_error _ -> Unix.WEXITED 0
        in
        reap ()
    in
    let st = wait () in
    s.reaped <- true;
    live := List.filter (fun x -> x != s) !live;
    st
  end

let stop_all () = List.iter (fun s -> ignore (stop ~grace:2.0 s)) !live

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn ~exe ~socket ~log args =
  let argv =
    Array.of_list
      ((exe :: "--socket" :: socket :: "--pidfile" :: (socket ^ ".pid") :: args))
  in
  let null = devnull () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close err)
      (fun () -> Unix.create_process exe argv null null err)
  in
  let s = { pid; socket; reaped = false } in
  live := s :: !live;
  s

let send fd record = Runtime.Frame.write fd (Runtime.Journal.encode record)

(* Block until one complete frame arrives on [fd] or [deadline]. *)
let read_frame reader fd ~deadline =
  let rec go () =
    match Runtime.Frame.next reader with
    | Some payload -> Runtime.Journal.parse_line payload
    | None ->
      let left = deadline -. now () in
      if left <= 0.0 then None
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ -> (
          match Runtime.Frame.read_into reader fd with
          | `Eof -> None
          | `Data | `Blocked -> go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Connect with ENOENT/ECONNREFUSED retried until [deadline]; fails
   early if the server process has already exited. The retry interval
   is 50 us: start-up takes a few milliseconds, so a coarser poll would
   make set-up time mostly measure the poll. *)
let connect s ~deadline =
  let rec go () =
    (match waitpid_nohang s.pid with
    | Some _ ->
      s.reaped <- true;
      failwith (Printf.sprintf "ns-serve (pid %d) exited during startup" s.pid)
    | None -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      ->
      Unix.close fd;
      if now () > deadline then failwith "ns-serve did not start listening";
      Unix.sleepf 0.00005;
      go ()
  in
  go ()

(* Spawn, then wait for the first pong. Returns the server, the
   connected descriptor and its reader. *)
let start ?(timeout = 30.0) ~exe ~socket ~log args =
  let deadline = now () +. timeout in
  let s = spawn ~exe ~socket ~log args in
  let fd = connect s ~deadline in
  let reader = Runtime.Frame.create_reader () in
  send fd [ ("op", Runtime.Journal.String "ping"); ("id", Runtime.Journal.String "ready") ];
  match read_frame reader fd ~deadline with
  | Some fields when Runtime.Journal.find_string fields "status" = Some "ok" -> (s, fd, reader)
  | _ -> failwith "ns-serve did not answer the first ping"

(* Peak resident set (VmHWM) of [pid] in MiB. *)
let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> Float.nan
          | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.0
            | exception _ -> scan ())
        in
        scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
