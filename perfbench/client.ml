(* The benchmark's client: one process, at most two connections.

   [open_loop] sends each request at its scheduled due time whether or
   not earlier ones have been answered (independent users), waking on
   the next due time or on readable replies, never on a fixed tick. *)

type conn = { fd : Unix.file_descr; reader : Runtime.Frame.reader }

let now = Benchkit.Stats.now

(* Read whatever is available on the readable connections and hand
   each complete frame to [on_frame] with the read time. *)
let pump conns ~timeout ~on_frame =
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
    Array.iter
      (fun c ->
        if List.mem c.fd readable then begin
          (match Runtime.Frame.read_into c.reader c.fd with
          | `Eof -> failwith "ns-serve closed the connection"
          | `Data | `Blocked -> ());
          let t = now () in
          let rec drain () =
            match Runtime.Frame.next c.reader with
            | None -> ()
            | Some payload ->
              (match Runtime.Journal.parse_line payload with
              | Some fields -> on_frame fields t
              | None -> failwith "ns-serve sent a malformed frame");
              drain ()
          in
          drain ()
        end)
      conns

(* "r12" -> Some 12 for ids with the given one-letter prefix. *)
let index_of_id prefix fields =
  match Runtime.Journal.find_string fields "id" with
  | Some id when String.length id > 1 && id.[0] = prefix ->
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  | _ -> None

type phase = {
  t0 : float;  (** Request [lo + k] was due at [t0 +. due.(k)]. *)
  sent_at : float array;
  reply_at : float array;  (** [nan] when unanswered. *)
  replies : Runtime.Journal.record option array;
  polls : Runtime.Journal.record list;  (** [metrics] replies, in order. *)
}

(* Sends [payloads.(lo + k)], which must carry the id ["r<lo+k>"], at
   [due.(k)]; arrays in the result are indexed by [k]. With
   [poll_every], a [metrics] op goes out that often on the first
   connection. Gives up [drain] seconds after the last due time. *)
let open_loop ?poll_every ~conns ~payloads ~lo ~due ~drain () =
  let n = Array.length due in
  let t0 = now () +. 0.05 in
  let last_due = t0 +. due.(n - 1) in
  let stop_at = last_due +. drain in
  let sent_at = Array.make n Float.nan in
  let reply_at = Array.make n Float.nan in
  let replies = Array.make n None in
  let answered = ref 0 in
  let next = ref 0 in
  let polls = ref [] and polls_sent = ref 0 in
  let next_poll = ref (match poll_every with Some p -> t0 +. p | None -> Float.infinity) in
  let on_frame fields t =
    match index_of_id 'r' fields with
    | Some i when i >= lo && i < lo + n && replies.(i - lo) = None ->
      replies.(i - lo) <- Some fields;
      reply_at.(i - lo) <- t;
      incr answered
    | _ -> if index_of_id 'm' fields <> None then polls := fields :: !polls
  in
  while !answered < n && now () < stop_at do
    while !next < n && t0 +. due.(!next) <= now () do
      let k = !next in
      Runtime.Frame.write conns.(k mod Array.length conns).fd payloads.(lo + k);
      sent_at.(k) <- now ();
      incr next
    done;
    if !next_poll <= Float.min (now ()) last_due then begin
      Proc.send conns.(0).fd
        [
          ("op", Runtime.Journal.String "metrics");
          ("id", Runtime.Journal.String (Printf.sprintf "m%d" !polls_sent));
        ];
      incr polls_sent;
      next_poll := !next_poll +. Option.value poll_every ~default:Float.infinity
    end;
    let wake = if !next < n then t0 +. due.(!next) else stop_at in
    let wake = if !next_poll <= last_due then Float.min wake !next_poll else wake in
    pump conns ~timeout:(wake -. now ()) ~on_frame
  done;
  { t0; sent_at; reply_at; replies; polls = List.rev !polls }

(* One blocking request/reply (warm-up, metrics after a phase). Frames
   with other ids, such as late replies from a finished phase, are
   skipped. *)
let call conn ?(timeout = 30.0) ~id record =
  Proc.send conn.fd (("id", Runtime.Journal.String id) :: record);
  let deadline = now () +. timeout in
  let rec go () =
    match Proc.read_frame conn.reader conn.fd ~deadline with
    | Some fields when Runtime.Journal.find_string fields "id" = Some id -> fields
    | Some _ -> go ()
    | None -> failwith "ns-serve did not answer"
  in
  go ()
