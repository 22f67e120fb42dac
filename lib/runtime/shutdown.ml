(* Signal state is two cells plus a self-pipe, written from the
   handler and polled at safe points (between instances, at epoch
   ends) or waited on by event loops; handlers do nothing else, so
   they are safe wherever OCaml delivers signals. *)

let flag = ref false
let received = ref None

(* Non-blocking at both ends, so neither the handler's write nor
   [reset]'s drain can block. It holds at most one byte: only the first
   signal after a [reset] writes. *)
let wake_r, wake_w = Unix.pipe ~cloexec:true ()
let () = List.iter Unix.set_nonblock [ wake_r; wake_w ]
let wake_fd () = wake_r

let requested () = !flag

let exit_code () = match !received with Some s -> 128 + s | None -> 1

let note s =
  if not !flag then
    (try ignore (Unix.single_write_substring wake_w "!" 0 1)
     with Unix.Unix_error _ -> ());
  flag := true;
  if !received = None then received := Some s

let installed = ref []

let install ?(signals = [ Sys.sigint; Sys.sigterm ]) () =
  installed := signals;
  List.iter
    (fun s ->
      (* [Sys.signal] numbers and [128 + n] exit codes both use the
         OS signal number, which [Sys.sigterm] etc. are not; translate
         through the only portable mapping the stdlib offers. *)
      let os_number =
        match s with
        | s when s = Sys.sigint -> 2
        | s when s = Sys.sigterm -> 15
        | s when s = Sys.sighup -> 1
        | _ -> 0
      in
      Sys.set_signal s (Sys.Signal_handle (fun _ -> note os_number)))
    signals

let uninstall () =
  List.iter (fun s -> Sys.set_signal s Sys.Signal_default) !installed;
  installed := []

let reset () =
  flag := false;
  received := None;
  try ignore (Unix.read wake_r (Bytes.create 1) 0 1) with Unix.Unix_error _ -> ()

let request () = note 0
