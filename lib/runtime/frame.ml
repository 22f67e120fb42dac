let max_frame = 64 * 1024 * 1024

(* A signal landing mid-write (SIGCHLD from a reaped worker, SIGALRM,
   a profiler tick) surfaces as EINTR; without the retry the exception
   escapes between two partial writes and tears the frame for every
   later message on the connection. *)
let write_all fd s =
  (* [single_write] moves at most one chunk, so an EINTR is never
     raised after bytes moved and the retry cannot duplicate any. *)
  let rec go off =
    if off < String.length s then
      match Unix.single_write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let write fd payload =
  write_all fd (Printf.sprintf "%d\n%s" (String.length payload) payload)

type reader = {
  buf : Buffer.t;
  chunk : Bytes.t; (* read scratch, reused so reads allocate nothing *)
  mutable bad : bool;
}

let create_reader () =
  { buf = Buffer.create 256; chunk = Bytes.create 65536; bad = false }

let feed r chunk ~len = if not r.bad then Buffer.add_subbytes r.buf chunk 0 len

(* Strict decimal length prefix: ASCII digits only (an optional
   trailing CR tolerates CRLF clients). [int_of_string_opt] would also
   accept hostile prefixes like "0x10", "1_000", "+5", or "- 3" — all
   of which desynchronise the framing between a lenient reader and any
   spec-faithful peer. Nine digits comfortably covers the 64 MiB cap
   without overflow. *)
let parse_length s =
  let s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
  in
  let n = String.length s in
  if n = 0 || n > 9 then None
  else if String.for_all (fun c -> c >= '0' && c <= '9') s then
    int_of_string_opt s
  else None

let next r =
  if r.bad then None
  else
    let s = Buffer.contents r.buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some nl -> (
      match parse_length (String.sub s 0 nl) with
      | None | Some 0 ->
        r.bad <- true;
        None
      | Some len when len < 0 || len > max_frame ->
        r.bad <- true;
        None
      | Some len ->
        if String.length s >= nl + 1 + len then begin
          let payload = String.sub s (nl + 1) len in
          Buffer.clear r.buf;
          Buffer.add_substring r.buf s (nl + 1 + len)
            (String.length s - nl - 1 - len);
          Some payload
        end
        else None)

let malformed r = r.bad

let read_into r fd =
  match Unix.read fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> `Eof
  | n ->
    feed r r.chunk ~len:n;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    `Blocked
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    (* Interrupted before any bytes moved: nothing read, not EOF — the
       caller's wait will come back. *)
    `Blocked
  | exception Unix.Unix_error _ -> `Eof
