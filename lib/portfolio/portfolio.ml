module Frame = Runtime.Frame
module Supervisor = Runtime.Supervisor
module Fault = Runtime.Fault
module Journal = Runtime.Journal
module Solver = Cdcl.Solver
module Stats = Cdcl.Solver_stats
module Share = Cdcl.Share

type spec = { name : string; config : Cdcl.Config.t }

let diversify ~k ~seed =
  let stems =
    [|
      ("evsids", fun c -> c);
      ( "frequency",
        fun c -> { c with Cdcl.Config.policy = Cdcl.Policy.frequency_default } );
      ("inprocess", fun c -> Cdcl.Config.with_inprocess ~interval:4 true c);
      ( "frequency-inprocess",
        fun c ->
          Cdcl.Config.with_inprocess ~interval:6 true
            { c with Cdcl.Config.policy = Cdcl.Policy.frequency_default } );
    |]
  in
  let units = [| 100; 64; 150; 37 |] in
  Array.init (max 1 k) (fun i ->
      let stem, f = stems.(i mod 4) in
      let base = units.(i mod 4) + (16 * (i / 4)) in
      let jitter = abs ((seed * (i + 1)) + (seed asr 4)) mod 16 in
      let unit = max 16 (base + jitter) in
      let config =
        f { Cdcl.Config.default with restart_mode = Cdcl.Config.Luby unit }
      in
      { name = Printf.sprintf "w%d-%s-luby%d" i stem unit; config })

type verdict = Sat of bool array | Unsat of string option | Unknown

type outcome = {
  verdict : verdict;
  winner : int;
  winner_name : string;
  epochs : int;
  exported : int;
  imported : int;
  rejected : int;
  torn_frames : int;
  workers_killed : int;
  cancel_seconds : float;
  journal : string list;
}

(* --- metrics ----------------------------------------------------------- *)

let m_exported = Obs.Metrics.counter "portfolio.clauses_exported"
let m_imported = Obs.Metrics.counter "portfolio.clauses_imported"
let m_rejected = Obs.Metrics.counter "portfolio.clauses_rejected"
let m_epochs = Obs.Metrics.counter "portfolio.epochs"
let m_torn = Obs.Metrics.counter "portfolio.torn_frames"
let m_killed = Obs.Metrics.counter "portfolio.workers_killed"
let g_winner = Obs.Metrics.gauge "portfolio.winner"
let h_cancel = Obs.Metrics.histogram "portfolio.cancel_seconds"

(* --- worker ------------------------------------------------------------ *)

(* Runs inside the forked supervisor child. Exchange protocol, all
   frames via {!Runtime.Frame}:

   worker -> parent   "X <imported> <rejected>\n<Share blob>"
                      one per epoch; the blob carries epoch + exports
                      "D <verdict> <epochs> <exp> <imp> <rej> <conflicts>"
                      terminal
   parent -> worker   "I <epoch>\n<blob><blob>..."
                      the other participants' blobs, ascending sender

   The solver's share hook blocks on the import read, which is the
   lockstep barrier: the parent only relays once every live
   participant has submitted the epoch. Any transport failure (torn
   write fault, closed pipe, malformed payload) drops the worker out
   of sharing — it keeps solving solo rather than deadlocking the
   barrier, and the parent departs it on its side. *)
let worker_main ~idx ~spec ~formula ~up_w ~down_r ~share ~interval ~glue_limit
    ~per_epoch ~proof ~max_conflicts () =
  let config =
    match max_conflicts with
    | None -> spec.config
    | Some m -> Cdcl.Config.with_budget ~max_conflicts:m spec.config
  in
  let solver = Solver.create ~config formula in
  let drup = Cdcl.Drup.create () in
  if proof then Cdcl.Drup.attach drup solver;
  let alive = ref share in
  let reader = Frame.create_reader () in
  let read_import () =
    let rec go () =
      match Frame.next reader with
      | Some p -> Some p
      | None ->
        if Frame.malformed reader then None
        else (
          match Frame.read_into reader down_r with
          | `Data | `Blocked -> go () (* `Blocked is EINTR: heartbeat tick *)
          | `Eof -> None)
    in
    go ()
  in
  let hook ~epoch exports =
    if not !alive then []
    else begin
      let blob = Share.encode { Share.sender = idx; epoch; clauses = exports } in
      let st = Solver.stats solver in
      let msg =
        Printf.sprintf "X %d %d\n%s" st.Stats.shared_imported
          st.Stats.shared_rejected blob
      in
      let sent =
        if Fault.fires Fault.Share_torn_frame then begin
          (* Tear the batch: ship a prefix that cuts into the clause
             blob (the pipe frame itself stays whole, so the damage is
             the payload's to detect) and drop out of sharing. *)
          let cut = String.length msg - ((String.length blob / 2) + 1) in
          let torn = String.sub msg 0 (max 3 cut) in
          (try Frame.write up_w torn with Unix.Unix_error _ -> ());
          false
        end
        else
          try
            Frame.write up_w msg;
            true
          with Unix.Unix_error _ -> false
      in
      if not sent then begin
        alive := false;
        []
      end
      else
        match read_import () with
        | None ->
          alive := false;
          []
        | Some payload -> (
          match String.index_opt payload '\n' with
          | Some nl when String.length payload > 2 && payload.[0] = 'I' -> (
            let blobs =
              String.sub payload (nl + 1) (String.length payload - nl - 1)
            in
            match Share.decode_all blobs with
            | Ok batches ->
              List.concat_map (fun (b : Share.batch) -> b.clauses) batches
            | Error _ ->
              alive := false;
              [])
          | _ ->
            alive := false;
            [])
    end
  in
  if share then Solver.set_share ~interval ~glue_limit ~per_epoch solver hook;
  let result = Solver.solve solver in
  let st = Solver.stats solver in
  let verdict =
    match result with
    | Solver.Sat _ -> "SAT"
    | Solver.Unsat -> "UNSAT"
    | Solver.Unknown -> "UNKNOWN"
  in
  let epochs = Solver.share_epochs solver in
  (if !alive then
     try
       Frame.write up_w
         (Printf.sprintf "D %s %d %d %d %d %d" verdict epochs
            st.Stats.shared_exported st.Stats.shared_imported
            st.Stats.shared_rejected st.Stats.conflicts)
     with Unix.Unix_error _ -> ());
  let buf = Buffer.create 256 in
  Buffer.add_string buf verdict;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d %d %d" st.Stats.shared_exported
       st.Stats.shared_imported st.Stats.shared_rejected epochs
       st.Stats.conflicts);
  Buffer.add_char buf '\n';
  (match result with
  | Solver.Sat model ->
    Buffer.add_string buf
      (String.init (Array.length model) (fun i -> if model.(i) then '1' else '0'))
  | Solver.Unsat ->
    if proof then begin
      Cdcl.Drup.conclude_unsat drup;
      Buffer.add_string buf (Cdcl.Drup.to_string drup)
    end
  | Solver.Unknown -> ());
  Ok (Buffer.contents buf)

(* --- parent ------------------------------------------------------------ *)

type msg =
  | Exports of { blob : string; epoch : int; count : int; imported : int; rejected : int }
  | Done of {
      verdict : string;
      epochs : int;
      exported : int;
      imported : int;
      rejected : int;
    }

type wstate = {
  idx : int;
  spec : spec;
  sup : Supervisor.t;
  up_r : Unix.file_descr;
  down_w : Unix.file_descr;
  reader : Frame.reader;
  inbox : msg Queue.t;
  mutable up_open : bool; (* [up_r] not yet drained to EOF *)
  mutable sharing : bool;
  mutable finished : Supervisor.verdict option;
  (* Best-known cumulative counters, from X and D reports. *)
  mutable exported : int;
  mutable imported : int;
  mutable rejected : int;
}

let ints_of_string s =
  try Some (List.map int_of_string (String.split_on_char ' ' (String.trim s)))
  with _ -> None

let parse_payload s =
  match String.split_on_char '\n' s with
  | verdict :: counters :: rest -> (
    match ints_of_string counters with
    | Some [ exported; imported; rejected; epochs; conflicts ] ->
      Some (verdict, exported, imported, rejected, epochs, conflicts,
            String.concat "\n" rest)
    | _ -> None)
  | _ -> None

let decisive = function "SAT" | "UNSAT" -> true | _ -> false

let solve ?(k = 4) ?(seed = 0) ?(share = true) ?(interval = 1) ?(glue_limit = 4)
    ?(per_epoch = 64) ?(proof = false) ?mem_limit_mb ?max_conflicts
    ?journal_path formula =
  if k < 1 then invalid_arg "Portfolio.solve: k must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let specs = diversify ~k ~seed in
  (* Every pipe exists before the first fork so each child can close
     every descriptor that is not its own pair — otherwise a sibling's
     inherited copy would keep a dead worker's pipe open forever. *)
  let pipes =
    Array.init k (fun _ ->
        let up_r, up_w = Unix.pipe () in
        let down_r, down_w = Unix.pipe () in
        (up_r, up_w, down_r, down_w))
  in
  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let limits = { Supervisor.default_limits with mem_limit_mb } in
  let workers =
    Array.init k (fun i ->
        let _, up_w, down_r, _ = pipes.(i) in
        let sup =
          Supervisor.spawn ~label:specs.(i).name limits (fun () ->
              Array.iteri
                (fun j (ur, uw, dr, dw) ->
                  if j = i then begin
                    close_quietly ur;
                    close_quietly dw
                  end
                  else begin
                    close_quietly ur;
                    close_quietly uw;
                    close_quietly dr;
                    close_quietly dw
                  end)
                pipes;
              worker_main ~idx:i ~spec:specs.(i) ~formula ~up_w ~down_r ~share
                ~interval ~glue_limit ~per_epoch ~proof ~max_conflicts ())
        in
        let up_r, _, _, down_w = pipes.(i) in
        Unix.set_nonblock up_r;
        {
          idx = i;
          spec = specs.(i);
          sup;
          up_r;
          down_w;
          reader = Frame.create_reader ();
          inbox = Queue.create ();
          up_open = true;
          sharing = share;
          finished = None;
          exported = 0;
          imported = 0;
          rejected = 0;
        })
  in
  Array.iter
    (fun (_, up_w, down_r, _) ->
      close_quietly up_w;
      close_quietly down_r)
    pipes;
  let journal = ref [] in
  let log fields = journal := Journal.encode fields :: !journal in
  log
    [
      ("event", Journal.String "portfolio_start");
      ("k", Journal.Int k);
      ("seed", Journal.Int seed);
      ("share", Journal.Bool share);
      ("interval", Journal.Int interval);
      ("vars", Journal.Int (Cnf.Formula.num_vars formula));
      ("clauses", Journal.Int (Cnf.Formula.num_clauses formula));
    ];
  Array.iter
    (fun w ->
      log
        [
          ("event", Journal.String "config");
          ("worker", Journal.Int w.idx);
          ("name", Journal.String w.spec.name);
        ])
    workers;
  let epoch = ref 0 in
  let torn = ref 0 in
  let killed = ref 0 in
  let winner = ref None in
  let depart ?(count_torn = false) w =
    if w.sharing then begin
      w.sharing <- false;
      if count_torn then incr torn
    end
  in
  let handle_payload w payload =
    let len = String.length payload in
    if len >= 2 && payload.[0] = 'X' then begin
      match String.index_opt payload '\n' with
      | None -> depart ~count_torn:true w
      | Some nl -> (
        let header = String.sub payload 2 (nl - 2) in
        let blob = String.sub payload (nl + 1) (len - nl - 1) in
        match (ints_of_string header, Share.decode blob) with
        | Some [ imported; rejected ], Ok b ->
          Queue.add
            (Exports
               {
                 blob;
                 epoch = b.Share.epoch;
                 count = List.length b.Share.clauses;
                 imported;
                 rejected;
               })
            w.inbox
        | _, _ -> depart ~count_torn:true w)
    end
    else if len >= 2 && payload.[0] = 'D' then begin
      match String.split_on_char ' ' (String.sub payload 2 (len - 2)) with
      | [ verdict; epochs; exported; imported; rejected; _conflicts ] -> (
        match
          ( int_of_string_opt epochs,
            int_of_string_opt exported,
            int_of_string_opt imported,
            int_of_string_opt rejected )
        with
        | Some epochs, Some exported, Some imported, Some rejected ->
          Queue.add
            (Done { verdict; epochs; exported; imported; rejected })
            w.inbox
        | _ -> depart ~count_torn:true w)
      | _ -> depart ~count_torn:true w
    end
    else depart ~count_torn:true w
  in
  let drain w =
    let rec frames () =
      match Frame.next w.reader with
      | Some p ->
        handle_payload w p;
        frames ()
      | None -> if Frame.malformed w.reader then depart ~count_torn:true w
    in
    let rec pump () =
      match Frame.read_into w.reader w.up_r with
      | `Data ->
        frames ();
        if w.sharing then pump ()
      | `Eof ->
        w.up_open <- false;
        frames ()
      | `Blocked -> frames ()
    in
    if w.sharing && w.up_open then pump ()
  in
  let service_all () =
    Array.iter
      (fun w ->
        if w.finished = None then
          match Supervisor.service w.sup with
          | Some v ->
            w.finished <- Some v;
            drain w;
            (* A worker that left without a queued message can no
               longer satisfy a barrier. *)
            if Queue.is_empty w.inbox then depart w
          | None -> ())
      workers
  in
  let participants () =
    Array.to_list workers |> List.filter (fun w -> w.sharing)
  in
  let crown w verdict_str =
    winner := Some (w, verdict_str);
    log
      [
        ("event", Journal.String "done");
        ("worker", Journal.Int w.idx);
        ("verdict", Journal.String verdict_str);
        ("epoch", Journal.Int !epoch);
      ]
  in
  let relay parts =
    List.iter
      (fun w ->
        let others =
          List.filter_map
            (fun o ->
              if o.idx = w.idx then None
              else
                match Queue.peek o.inbox with
                | Exports e -> Some e.blob
                | Done _ -> None
                | exception Queue.Empty -> None)
            parts
        in
        try Frame.write w.down_w (Printf.sprintf "I %d\n%s" !epoch (String.concat "" others))
        with Unix.Unix_error _ -> depart w)
      parts
  in
  let rec barriers () =
    match !winner with
    | Some _ -> ()
    | None ->
      let parts = participants () in
      if parts <> [] && List.for_all (fun w -> not (Queue.is_empty w.inbox)) parts
      then begin
        let dones =
          List.filter
            (fun w ->
              match Queue.peek w.inbox with Done _ -> true | _ -> false)
            parts
        in
        let decisive_dones =
          List.filter
            (fun w ->
              match Queue.peek w.inbox with
              | Done d -> decisive d.verdict
              | _ -> false)
            parts
        in
        let record w =
          match Queue.peek w.inbox with
          | Exports e ->
            w.exported <- w.exported + e.count;
            w.imported <- e.imported;
            w.rejected <- e.rejected
          | Done d ->
            w.exported <- d.exported;
            w.imported <- d.imported;
            w.rejected <- d.rejected
        in
        match decisive_dones with
        | w :: _ ->
          (* Lowest worker index among decisive verdicts at this
             barrier: deterministic, not a wall-clock race. The loop
             ends here, so every queued message is recorded once. *)
          List.iter record parts;
          let v = match Queue.peek w.inbox with
            | Done d -> d.verdict
            | Exports _ -> assert false
          in
          crown w v
        | [] ->
          if dones <> [] then begin
            (* Unknown verdicts leave the portfolio; the rest carry on. *)
            List.iter
              (fun w ->
                record w;
                ignore (Queue.pop w.inbox);
                log
                  [
                    ("event", Journal.String "done");
                    ("worker", Journal.Int w.idx);
                    ("verdict", Journal.String "UNKNOWN");
                    ("epoch", Journal.Int !epoch);
                  ];
                depart w)
              dones;
            barriers ()
          end
          else if Fault.fires Fault.Portfolio_worker_kill && List.length parts > 1
          then begin
            (* Kill the highest-index participant mid-exchange: it has
               submitted its epoch and is blocked awaiting imports. *)
            let victim = List.nth parts (List.length parts - 1) in
            (try Unix.kill (Supervisor.pid victim.sup) Sys.sigkill
             with Unix.Unix_error _ -> ());
            incr killed;
            Queue.clear victim.inbox;
            depart victim;
            barriers ()
          end
          else begin
            relay parts;
            log
              ([
                 ("event", Journal.String "epoch");
                 ("epoch", Journal.Int !epoch);
               ]
              @ List.concat_map
                  (fun w ->
                    match Queue.peek w.inbox with
                    | Exports e ->
                      [
                        (Printf.sprintf "w%d_exports" w.idx, Journal.Int e.count);
                        (Printf.sprintf "w%d_imported" w.idx, Journal.Int e.imported);
                        (Printf.sprintf "w%d_rejected" w.idx, Journal.Int e.rejected);
                      ]
                    | Done _ -> [])
                  parts);
            List.iter
              (fun w ->
                record w;
                ignore (Queue.pop w.inbox))
              parts;
            incr epoch;
            barriers ()
          end
      end
  in
  let all_finished () = Array.for_all (fun w -> w.finished <> None) workers in
  (* Solo completions (a worker that dropped out of sharing and solved
     on its own) can win only when no barrier can decide first. *)
  let solo_winner () =
    if !winner <> None then ()
    else
      Array.iter
        (fun w ->
          if !winner = None && not w.sharing && Queue.is_empty w.inbox then
            match w.finished with
            | Some (Supervisor.Completed (Ok payload)) -> (
              match parse_payload payload with
              | Some (v, _, _, _, _, _, _) when decisive v -> crown w v
              | _ -> ())
            | _ -> ())
        workers
  in
  (* Service before every loop test: a worker left unfinished here has
     an open result pipe and a watchdog deadline, so the wait ends. *)
  service_all ();
  while !winner = None && not (all_finished ()) do
    (* Wake on a sharing message, on a worker's result or heartbeat
       pipe, or at the earliest supervision deadline. *)
    let fds =
      Array.to_list workers
      |> List.concat_map (fun w ->
             (if w.sharing && w.up_open then [ w.up_r ] else [])
             @ Supervisor.wait_fds w.sup)
    in
    let until =
      Array.fold_left
        (fun d w -> Float.min d (Supervisor.next_deadline w.sup))
        infinity workers
    in
    let readable = Runtime.Loop.wait fds ~until in
    Array.iter (fun w -> if List.mem w.up_r readable then drain w) workers;
    service_all ();
    barriers ();
    if participants () = [] then solo_winner ()
  done;
  (* The loop services and drains before every test; only a run whose
     workers all finished before the first wait has barriers pending. *)
  barriers ();
  solo_winner ();
  (* Cancel everyone still running (never the winner: its result
     payload may still be in flight) and measure how long reaping
     takes. *)
  let t0 = Unix.gettimeofday () in
  let is_winner w =
    match !winner with Some (ww, _) -> ww.idx = w.idx | None -> false
  in
  Array.iter
    (fun w ->
      if w.finished = None && not (is_winner w) then Supervisor.abort w.sup)
    workers;
  Array.iter
    (fun w ->
      if w.finished = None then w.finished <- Some (Supervisor.await w.sup))
    workers;
  let cancel_seconds =
    match !winner with Some _ -> Unix.gettimeofday () -. t0 | None -> 0.0
  in
  Array.iter
    (fun w ->
      close_quietly w.up_r;
      close_quietly w.down_w)
    workers;
  (* The winner's payload (via the supervisor result pipe) carries the
     model or proof and authoritative counters. *)
  let verdict, winner_idx, winner_name =
    match !winner with
    | None -> (Unknown, -1, "none")
    | Some (w, _) -> (
      match w.finished with
      | Some (Supervisor.Completed (Ok payload)) -> (
        match parse_payload payload with
        | Some ("SAT", exported, imported, rejected, _, _, extra) ->
          w.exported <- exported;
          w.imported <- imported;
          w.rejected <- rejected;
          let model = Array.init (String.length extra) (fun i -> extra.[i] = '1') in
          (Sat model, w.idx, w.spec.name)
        | Some ("UNSAT", exported, imported, rejected, _, _, extra) ->
          w.exported <- exported;
          w.imported <- imported;
          w.rejected <- rejected;
          (Unsat (if proof then Some extra else None), w.idx, w.spec.name)
        | _ -> (Unknown, w.idx, w.spec.name))
      | _ -> (Unknown, w.idx, w.spec.name))
  in
  let exported = Array.fold_left (fun acc w -> acc + w.exported) 0 workers in
  let imported = Array.fold_left (fun acc w -> acc + w.imported) 0 workers in
  let rejected = Array.fold_left (fun acc w -> acc + w.rejected) 0 workers in
  log
    [
      ("event", Journal.String "winner");
      ("worker", Journal.Int winner_idx);
      ("name", Journal.String winner_name);
      ( "verdict",
        Journal.String
          (match verdict with
          | Sat _ -> "SAT"
          | Unsat _ -> "UNSAT"
          | Unknown -> "UNKNOWN") );
      ("epochs", Journal.Int !epoch);
      ("exported", Journal.Int exported);
      ("imported", Journal.Int imported);
      ("rejected", Journal.Int rejected);
      ("torn_frames", Journal.Int !torn);
      ("workers_killed", Journal.Int !killed);
    ];
  let journal = List.rev !journal in
  (match journal_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      journal;
    close_out oc);
  Obs.Metrics.add m_exported exported;
  Obs.Metrics.add m_imported imported;
  Obs.Metrics.add m_rejected rejected;
  Obs.Metrics.add m_epochs !epoch;
  Obs.Metrics.add m_torn !torn;
  Obs.Metrics.add m_killed !killed;
  Obs.Metrics.set g_winner (float_of_int winner_idx);
  if !winner <> None then Obs.Metrics.observe h_cancel cancel_seconds;
  {
    verdict;
    winner = winner_idx;
    winner_name;
    epochs = !epoch;
    exported;
    imported;
    rejected;
    torn_frames = !torn;
    workers_killed = !killed;
    cancel_seconds;
    journal;
  }
