(* ns-serve: long-lived incremental solve service.

   Speaks a length-prefixed JSON protocol (decimal byte count, newline,
   flat JSON object — the Journal codec) over a Unix-domain socket or
   stdin/stdout. One-shot solve requests are multiplexed onto a
   Runtime.Pool of supervised worker processes with per-request wall
   deadlines and RLIMIT_AS memory caps; a bounded queue sheds excess
   load with 429-style responses instead of building backlog, and
   crashed workers are retried with backoff. Incremental sessions run
   in-process on the Cdcl.Solver IPASIR-style API. SIGTERM drains
   gracefully: in-flight work finishes, new work is rejected, the
   journal is flushed, and the process exits 0.

   Requests (one JSON object per frame):
     {"op":"ping","id":..}
     {"op":"metrics","id":..}            server-level snapshot
     {"op":"solve","id":..,"dimacs":..,
      "deadline_s":..,"mem_mb":..}       pool-backed one-shot solve
     {"op":"session","id":..,
      "action":"new|add|new_var|solve|close|info",
      "sid":..,"vars":..,"clause":"1 -2 0","assumptions":"1 -2",
      "key":"client idempotency key"}

   Responses echo "id", carry "status" ("ok" | "error" | "shed" |
   "rejected") and, for solves, the verdict, model, solver statistics,
   attempt count, latency, and the inference-breaker degraded flag.

   Durability: with --wal DIR every mutating session op is appended to
   a CRC-framed write-ahead log (Runtime.Wal, via
   Nserve.Session_store) *before* the response is acked, and on
   startup all sessions are rebuilt from the newest snapshot plus
   segment replay. A request "key" makes client retries after a crash
   exactly-once: a key already executed returns the cached reply with
   "replayed":true instead of re-executing. *)

let m_requests = Obs.Metrics.counter "serve.requests"
let m_completed = Obs.Metrics.counter "serve.completed"
let m_failed = Obs.Metrics.counter "serve.failed"
let m_rejected = Obs.Metrics.counter "serve.rejected"
let h_latency = Obs.Metrics.histogram "serve.latency_seconds"

(* A client: frames arrive on [in_fd], responses leave on [out_fd] —
   one socket, or stdin/stdout in --stdio mode. *)
type client = {
  in_fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  reader : Runtime.Frame.reader;
  mutable reading : bool; (* false after EOF or a malformed frame *)
  mutable alive : bool; (* false once a response write failed *)
}

let new_client ~in_fd ~out_fd =
  {
    in_fd;
    out_fd;
    reader = Runtime.Frame.create_reader ();
    reading = true;
    alive = true;
  }

(* Extract complete frames in arrival order; a malformed length prefix
   ends the connection. *)
let drain_frames c =
  let out = ref [] in
  let continue = ref true in
  while !continue do
    match Runtime.Frame.next c.reader with
    | Some payload -> out := payload :: !out
    | None -> continue := false
  done;
  if Runtime.Frame.malformed c.reader then c.reading <- false;
  List.rev !out

(* A socket is closed as soon as its client is gone; stdout stays open
   so the drain can still answer what a stdio client sent before EOF. *)
let drop c =
  if c.in_fd = c.out_fd then begin
    c.alive <- false;
    try Unix.close c.in_fd with Unix.Unix_error _ -> ()
  end

(* --- literal / model string helpers ----------------------------------- *)

module Store = Nserve.Session_store

let model_to_string = Store.model_to_string
let verdict_name = Store.verdict_name

(* --- worker-side solve ------------------------------------------------- *)

(* Runs inside the forked supervisor worker: parse, solve under the
   request's wall budget, and return a flat-JSON payload the parent
   merges into the response. *)
let worker_solve ~deadline_s ~inject_marker ~policy dimacs () =
  (match inject_marker with
  | Some marker when not (Sys.file_exists marker) ->
    (* Injected crash for drill scenarios: die on the first attempt,
       succeed on the retry (the marker outlives this process). *)
    (try
       let oc = open_out marker in
       close_out oc
     with Sys_error _ -> ());
    exit 66
  | _ -> ());
  match Runtime.Error.protect ~context:"serve.worker" (fun () ->
      let f = Cnf.Dimacs.parse_string dimacs in
      let config =
        Cdcl.Config.with_budget ~max_wall_seconds:deadline_s
          Cdcl.Config.default
      in
      (* The parent's policy selection rides in as the serialized
         policy name; an unparseable name falls back to the default. *)
      let config =
        match Option.bind policy Cdcl.Policy.of_string with
        | Some p -> Cdcl.Config.with_policy p config
        | None -> config
      in
      let result, stats = Cdcl.Solver.solve_formula ~config f in
      Runtime.Journal.encode
        ([
           ("verdict", Runtime.Journal.String (verdict_name result));
           ( "model",
             match result with
             | Cdcl.Solver.Sat m -> Runtime.Journal.String (model_to_string m)
             | _ -> Runtime.Journal.Null );
           ("conflicts", Runtime.Journal.Int stats.Cdcl.Solver_stats.conflicts);
           ("decisions", Runtime.Journal.Int stats.Cdcl.Solver_stats.decisions);
           ( "propagations",
             Runtime.Journal.Int stats.Cdcl.Solver_stats.propagations );
           ( "learned",
             Runtime.Journal.Int stats.Cdcl.Solver_stats.learned_total );
         ]))
  with
  | Ok payload -> Ok payload
  | Error e -> Error (Runtime.Error.to_string e)

(* --- server state ------------------------------------------------------ *)

type pending_req = {
  pr_client : client;
  pr_user_id : string;
  pr_submitted : float;
  pr_marker : string option;
  pr_extra : Runtime.Journal.record;
      (* Parent-side selection fields (policy, cache, probability)
         merged into the solve response. *)
}

type server = {
  pool : Runtime.Pool.t;
  pending : (string, pending_req) Hashtbl.t; (* pool id -> request *)
  selector : Core.Model.t option;
      (* --adaptive: model for parent-side cached policy selection. *)
  store : Store.t;
  wal_enabled : bool;
  journal : string option;
  default_deadline : float;
  default_mem_mb : int option;
  allow_inject : bool;
  verbose : bool;
  mutable next_req : int;
  mutable draining : bool;
  mutable next_sweep : float; (* idle-session TTL sweep; infinity = off *)
}

let log srv fmt =
  Printf.ksprintf
    (fun s -> if srv.verbose then Printf.eprintf "c [serve] %s\n%!" s)
    fmt

let degraded () =
  match Core.Selector.breaker_state () with
  | Runtime.Breaker.Open -> true
  | Runtime.Breaker.Closed | Runtime.Breaker.Half_open -> false

let journal_append srv record =
  match srv.journal with
  | None -> ()
  | Some path -> (
    match Runtime.Journal.append path record with
    | Ok () -> ()
    | Error e -> log srv "journal append failed: %s" (Runtime.Error.to_string e))

let respond srv client record =
  if client.alive then
    try Runtime.Frame.write client.out_fd (Runtime.Journal.encode record)
    with Unix.Unix_error _ ->
      client.alive <- false;
      log srv "client write failed; dropping connection"

let base_response ~id ~status rest =
  ("id", Runtime.Journal.String id)
  :: ("status", Runtime.Journal.String status)
  :: ("degraded", Runtime.Journal.Bool (degraded ()))
  :: rest

(* Completion of a pool-backed solve: merge the worker payload (or the
   failure) into the response, journal it, and clean up. *)
let on_pool_complete srv (c : Runtime.Pool.completion) =
  match Hashtbl.find_opt srv.pending c.Runtime.Pool.id with
  | None -> ()
  | Some pr ->
    Hashtbl.remove srv.pending c.Runtime.Pool.id;
    (match pr.pr_marker with
    | Some m when Sys.file_exists m -> ( try Sys.remove m with Sys_error _ -> ())
    | _ -> ());
    let latency = Unix.gettimeofday () -. pr.pr_submitted in
    Obs.Metrics.observe h_latency latency;
    let tail =
      [
        ("attempts", Runtime.Journal.Int c.Runtime.Pool.attempts);
        ("latency_ms", Runtime.Journal.Float (1000.0 *. latency));
      ]
    in
    let record =
      match c.Runtime.Pool.outcome with
      | Runtime.Pool.Done payload ->
        Obs.Metrics.incr m_completed;
        let body =
          match Runtime.Journal.parse_line payload with
          | Some fields -> fields
          | None ->
            [ ("verdict", Runtime.Journal.String "unknown") ]
        in
        base_response ~id:pr.pr_user_id ~status:"ok"
          (body @ pr.pr_extra @ tail)
      | Runtime.Pool.Failed msg ->
        Obs.Metrics.incr m_failed;
        base_response ~id:pr.pr_user_id ~status:"error"
          (("error", Runtime.Journal.String msg) :: tail)
      | Runtime.Pool.Shed ->
        (* 429-style: admission control refused the request. *)
        base_response ~id:pr.pr_user_id ~status:"shed" tail
    in
    respond srv pr.pr_client record;
    journal_append srv record

(* --- request handling --------------------------------------------------- *)

let handle_metrics srv ~id client =
  let num name v = (name, Runtime.Journal.Int v) in
  let cs = Core.Selector.cache_stats () in
  respond srv client
    (base_response ~id ~status:"ok"
       [
         num "requests" (Obs.Metrics.counter_value m_requests);
         num "cache_hits" cs.Core.Selector.hits;
         num "cache_misses" cs.Core.Selector.misses;
         num "cache_evictions" cs.Core.Selector.evictions;
         num "cache_size" cs.Core.Selector.size;
         num "completed" (Obs.Metrics.counter_value m_completed);
         num "failed" (Obs.Metrics.counter_value m_failed);
         num "rejected" (Obs.Metrics.counter_value m_rejected);
         num "shed" (Runtime.Pool.shed_count srv.pool);
         num "worker_retries"
           (Obs.Metrics.counter_value
              (Obs.Metrics.counter "runtime.pool.worker_retries"));
         num "in_flight" (Runtime.Pool.in_flight srv.pool);
         num "queued" (Runtime.Pool.queued srv.pool);
         num "sessions" (Store.session_count srv.store);
         num "evicted" (Store.evictions srv.store);
         num "snapshot_failures" (Store.snapshot_failures srv.store);
         ("wal", Runtime.Journal.Bool srv.wal_enabled);
         ( "breaker",
           Runtime.Journal.String
             (Runtime.Breaker.state_name (Core.Selector.breaker_state ())) );
         ("draining", Runtime.Journal.Bool srv.draining);
       ])

let handle_solve srv ~id client fields =
  match Runtime.Journal.find_string fields "dimacs" with
  | None ->
    respond srv client
      (base_response ~id ~status:"error"
         [ ("error", Runtime.Journal.String "solve: missing dimacs field") ])
  | Some dimacs ->
    let deadline_s =
      match Runtime.Journal.find_float fields "deadline_s" with
      | Some d when d > 0.0 && Float.is_finite d -> d
      | _ -> srv.default_deadline
    in
    let mem_mb =
      match Runtime.Journal.find_int fields "mem_mb" with
      | Some m when m > 0 -> Some m
      | _ -> srv.default_mem_mb
    in
    let inject_marker =
      match Runtime.Journal.find_string fields "inject" with
      | Some "crash_once" when srv.allow_inject ->
        Some
          (Filename.concat
             (Filename.get_temp_dir_name ())
             (Printf.sprintf "ns-serve-inject-%d-%d" (Unix.getpid ())
                srv.next_req))
      | _ -> None
    in
    (* --adaptive: select the deletion policy in the parent, through
       the fingerprint-keyed decision cache, and ship the chosen
       policy's name to the worker. A repeated instance costs a cache
       lookup instead of a model forward. *)
    let policy, extra =
      match srv.selector with
      | None -> (None, [])
      | Some model -> (
        match Cnf.Dimacs.parse_string dimacs with
        | exception _ -> (None, [])
        | formula ->
          let t0 = Unix.gettimeofday () in
          let s = Core.Selector.select_policy ~use_cache:true model formula in
          let selection_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
          let extra =
            [
              ( "policy",
                Runtime.Journal.String
                  (Cdcl.Policy.name s.Core.Selector.policy) );
              ( "cache",
                Runtime.Journal.String
                  (if s.Core.Selector.cached then "hit" else "miss") );
              ("selection_ms", Runtime.Journal.Float selection_ms);
            ]
          in
          let extra =
            if Float.is_finite s.Core.Selector.probability then
              extra
              @ [
                  ( "probability",
                    Runtime.Journal.Float s.Core.Selector.probability );
                ]
            else extra
          in
          (Some (Cdcl.Policy.name s.Core.Selector.policy), extra))
    in
    let pool_id = Printf.sprintf "r%d" srv.next_req in
    srv.next_req <- srv.next_req + 1;
    Hashtbl.replace srv.pending pool_id
      {
        pr_client = client;
        pr_user_id = id;
        pr_submitted = Unix.gettimeofday ();
        pr_marker = inject_marker;
        pr_extra = extra;
      };
    let limits =
      {
        Runtime.Supervisor.default_limits with
        Runtime.Supervisor.mem_limit_mb = mem_mb;
        (* The solver budget returns Unknown at [deadline_s]; the
           supervisor deadline is the backstop for a worker that fails
           to honour it. *)
        deadline_seconds = Some ((deadline_s *. 1.5) +. 1.0);
      }
    in
    (* Shed submissions complete synchronously through on_pool_complete. *)
    ignore
      (Runtime.Pool.submit srv.pool ~limits ~id:pool_id
         (worker_solve ~deadline_s ~inject_marker ~policy dimacs))

(* Incremental sessions run in-process through the durable
   Session_store; solver budgets (not supervisor deadlines) bound their
   solve steps, so a session solve stalls the event loop for at most
   the deadline. With --wal, Session_store appends every mutating op to
   the log before this handler acks it. *)
let handle_session srv ~id client fields =
  let sid =
    Option.value (Runtime.Journal.find_string fields "sid") ~default:"s0"
  in
  let action =
    Option.value (Runtime.Journal.find_string fields "action") ~default:""
  in
  let key = Runtime.Journal.find_string fields "key" in
  let ok rest = respond srv client (base_response ~id ~status:"ok" rest) in
  let err msg =
    respond srv client
      (base_response ~id ~status:"error"
         [ ("error", Runtime.Journal.String msg) ])
  in
  let op =
    match action with
    | "new" ->
      let vars =
        match Runtime.Journal.find_int fields "vars" with
        | Some v when v >= 0 -> v
        | _ -> 0
      in
      Some (Store.New vars)
    | "new_var" -> Some Store.New_var
    | "add" ->
      Some
        (Store.Add
           (Option.value
              (Runtime.Journal.find_string fields "clause")
              ~default:""))
    | "solve" ->
      Some
        (Store.Solve
           (Option.value
              (Runtime.Journal.find_string fields "assumptions")
              ~default:""))
    | "close" -> Some Store.Close
    | _ -> None
  in
  match (action, op) with
  | "info", _ -> (
    (* Read-only session probe: the loadtest's lost-op detector. *)
    match Store.info srv.store sid with
    | Some (vars, clauses) ->
      ok
        [
          ("sid", Runtime.Journal.String sid);
          ("vars", Runtime.Journal.Int vars);
          ("clauses", Runtime.Journal.Int clauses);
        ]
    | None -> err (Printf.sprintf "session: unknown sid %s" sid))
  | _, Some op -> (
    let t0 = Unix.gettimeofday () in
    let outcome = Store.apply srv.store ?key ~sid op in
    match outcome.Store.reply with
    | Error msg -> err msg
    | Ok rest ->
      let rest =
        match op with
        | Store.Solve _ ->
          rest
          @ [
              ( "latency_ms",
                Runtime.Journal.Float (1000.0 *. (Unix.gettimeofday () -. t0))
              );
            ]
        | _ -> rest
      in
      let rest =
        if outcome.Store.replayed then
          rest @ [ ("replayed", Runtime.Journal.Bool true) ]
        else rest
      in
      ok rest)
  | other, None -> err (Printf.sprintf "session: unknown action %S" other)

let reject srv ~id client =
  Obs.Metrics.incr m_rejected;
  let record = base_response ~id ~status:"rejected" [] in
  respond srv client record;
  journal_append srv record

let handle_frame srv client payload =
  Obs.Metrics.incr m_requests;
  match Runtime.Journal.parse_line payload with
  | None ->
    respond srv client
      (base_response ~id:"" ~status:"error"
         [ ("error", Runtime.Journal.String "malformed JSON frame") ])
  | Some fields -> (
    let id =
      Option.value (Runtime.Journal.find_string fields "id") ~default:""
    in
    let op =
      Option.value (Runtime.Journal.find_string fields "op") ~default:""
    in
    match op with
    | "ping" -> respond srv client (base_response ~id ~status:"ok" [])
    | "metrics" -> handle_metrics srv ~id client
    | _ when srv.draining ->
      (* Draining: in-flight work finishes, new work is turned away. *)
      reject srv ~id client
    | "solve" -> handle_solve srv ~id client fields
    | "session" -> handle_session srv ~id client fields
    | other ->
      respond srv client
        (base_response ~id ~status:"error"
           [
             ( "error",
               Runtime.Journal.String (Printf.sprintf "unknown op %S" other) );
           ]))

(* --- event loop --------------------------------------------------------- *)

let service_client srv c =
  (match Runtime.Frame.read_into c.reader c.in_fd with
  | `Eof -> c.reading <- false
  | `Data | `Blocked -> ());
  if c.alive then List.iter (handle_frame srv c) (drain_frames c)

(* Graceful drain: [draining] is set. In-flight workers finish under
   their own limits (the pool launches nothing new once Shutdown is
   requested; after a stdio EOF it still runs what is queued); their
   responses flow out through on_pool_complete; requests that never
   launched are rejected so no client is left hanging. *)
let drain_and_exit srv clients =
  log srv "draining: %d in flight, %d queued"
    (Runtime.Pool.in_flight srv.pool)
    (Runtime.Pool.queued srv.pool);
  let not_run = Runtime.Pool.drain srv.pool in
  List.iter
    (fun pool_id ->
      match Hashtbl.find_opt srv.pending pool_id with
      | None -> ()
      | Some pr ->
        Hashtbl.remove srv.pending pool_id;
        reject srv ~id:pr.pr_user_id pr.pr_client)
    not_run;
  (* Sync and close the WAL so the final fsync covers every acked op. *)
  Store.close srv.store;
  journal_append srv
    [
      ("event", Runtime.Journal.String "drained");
      ( "completed",
        Runtime.Journal.Int (Obs.Metrics.counter_value m_completed) );
      ("rejected", Runtime.Journal.Int (Obs.Metrics.counter_value m_rejected));
      ("shed", Runtime.Journal.Int (Runtime.Pool.shed_count srv.pool));
    ];
  List.iter drop clients;
  log srv "drained cleanly"

let sweep_idle srv =
  let now = Unix.gettimeofday () in
  if now >= srv.next_sweep then begin
    srv.next_sweep <- now +. 1.0;
    let n = Store.evict_idle srv.store in
    if n > 0 then log srv "evicted %d idle session(s)" n
  end

(* Group-commit appends only fsync when later traffic arrives, so the
   loop wakes at the WAL's due time (Store.flush_due) to bound the
   durability window across traffic pauses. *)
let flush_wal srv =
  match Store.flush srv.store with
  | Ok () -> ()
  | Error e -> log srv "wal flush failed: %s" (Runtime.Error.to_string e)

(* Wake on a readable listener, client or worker pipe, on a shutdown
   signal, or at the earliest of the pool's supervision deadlines, the
   TTL sweep and the WAL group-commit due time. With no [accept_fd]
   (stdio) the loop ends when its client does: EOF means drain. *)
let serve_loop srv ~accept_fd ~clients =
  let clients = ref clients in
  let wake = Runtime.Shutdown.wake_fd () in
  while not srv.draining do
    let fds =
      (wake :: Option.to_list accept_fd)
      @ List.map (fun c -> c.in_fd) !clients
      @ Runtime.Pool.wait_fds srv.pool
    in
    let until =
      Float.min
        (Runtime.Pool.next_deadline srv.pool)
        (Float.min srv.next_sweep (Store.flush_due srv.store))
    in
    let readable = Runtime.Loop.wait fds ~until in
    (* Frames read once the shutdown is seen are answered "rejected". *)
    srv.draining <- Runtime.Shutdown.requested ();
    (match accept_fd with
    | Some lfd when (not srv.draining) && List.mem lfd readable -> (
      match Unix.accept lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        clients := new_client ~in_fd:fd ~out_fd:fd :: !clients
      | exception Unix.Unix_error _ -> ())
    | _ -> ());
    List.iter
      (fun c -> if List.mem c.in_fd readable then service_client srv c)
      !clients;
    clients :=
      List.filter (fun c -> (c.reading && c.alive) || (drop c; false)) !clients;
    Runtime.Pool.pump srv.pool;
    sweep_idle srv;
    flush_wal srv;
    if accept_fd = None && !clients = [] then srv.draining <- true
  done;
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    accept_fd;
  drain_and_exit srv !clients

(* --- startup ------------------------------------------------------------ *)

let run socket stdio jobs max_queue max_retries deadline mem_mb journal pidfile
    wal wal_group_commit snapshot_every max_sessions session_ttl allow_inject
    adaptive checkpoint verbose =
  Runtime.Shutdown.install ();
  let selector =
    if not adaptive then None
    else begin
      let model = Core.Model.create Core.Model.paper_config in
      (match checkpoint with
      | Some path -> (
        match Core.Model.load_result path model with
        | Ok Nn.Checkpoint.Primary -> ()
        | Ok Nn.Checkpoint.Backup ->
          Printf.eprintf "ns-serve: %s corrupt, using %s\n%!" path
            (Nn.Checkpoint.backup_path path)
        | Error e ->
          Printf.eprintf
            "ns-serve: cannot load %s (%s); serving untrained weights\n%!" path
            (Runtime.Error.to_string e))
      | None -> ());
      Some model
    end
  in
  let store_config =
    {
      Store.default_config with
      Store.wal_dir = wal;
      fsync =
        (match wal_group_commit with
        | Some s when s > 0.0 -> Runtime.Wal.Group_commit s
        | _ -> Runtime.Wal.Per_record);
      snapshot_every;
      max_sessions;
      session_ttl;
    }
  in
  let t_recover = Unix.gettimeofday () in
  match Store.create store_config with
  | Error e ->
    Printf.eprintf "ns-serve: wal recovery failed: %s\n%!"
      (Runtime.Error.to_string e);
    1
  | Ok (store, recovery) ->
  let recovery_s = Unix.gettimeofday () -. t_recover in
  let srv_ref = ref None in
  let pool =
    Runtime.Pool.create ~jobs ~max_queue ~max_retries
      ~limits:
        {
          Runtime.Supervisor.default_limits with
          Runtime.Supervisor.deadline_seconds = Some ((deadline *. 1.5) +. 1.0);
          mem_limit_mb = mem_mb;
        }
      ~on_complete:(fun c ->
        match !srv_ref with Some srv -> on_pool_complete srv c | None -> ())
      ()
  in
  let srv =
    {
      pool;
      pending = Hashtbl.create 64;
      selector;
      store;
      wal_enabled = wal <> None;
      journal;
      default_deadline = deadline;
      default_mem_mb = mem_mb;
      allow_inject;
      verbose;
      next_req = 0;
      draining = false;
      next_sweep =
        (if session_ttl > 0.0 then Unix.gettimeofday () +. 1.0 else infinity);
    }
  in
  srv_ref := Some srv;
  if srv.wal_enabled then begin
    log srv
      "wal recovery: %d session(s), %d record(s) replayed, snapshot=%b, \
       truncated=%dB, corrupt_snapshots=%d, restore_errors=%d (%.1f ms)"
      recovery.Store.sessions recovery.Store.replayed
      recovery.Store.from_snapshot recovery.Store.truncated_bytes
      recovery.Store.corrupt_snapshots recovery.Store.restore_errors
      (1000.0 *. recovery_s);
    journal_append srv
      [
        ("event", Runtime.Journal.String "recovered");
        ("sessions", Runtime.Journal.Int recovery.Store.sessions);
        ("replayed", Runtime.Journal.Int recovery.Store.replayed);
        ("from_snapshot", Runtime.Journal.Bool recovery.Store.from_snapshot);
        ("truncated_bytes", Runtime.Journal.Int recovery.Store.truncated_bytes);
        ( "corrupt_snapshots",
          Runtime.Journal.Int recovery.Store.corrupt_snapshots );
        ("restore_errors", Runtime.Journal.Int recovery.Store.restore_errors);
        ("recovery_ms", Runtime.Journal.Float (1000.0 *. recovery_s));
      ]
  end;
  if stdio then begin
    serve_loop srv ~accept_fd:None
      ~clients:[ new_client ~in_fd:Unix.stdin ~out_fd:Unix.stdout ];
    0
  end
  else begin
    let socket_path =
      match socket with
      | Some s -> s
      | None -> Filename.concat (Filename.get_temp_dir_name ()) "ns-serve.sock"
    in
    let pidfile =
      match pidfile with Some p -> p | None -> socket_path ^ ".pid"
    in
    match Runtime.Pidlock.acquire pidfile with
    | Error e ->
      Printf.eprintf "ns-serve: %s\n%!" (Runtime.Error.to_string e);
      1
    | Ok () ->
      if Runtime.Pidlock.sweep_socket socket_path then
        log srv "swept stale socket %s" socket_path;
      let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind lfd (Unix.ADDR_UNIX socket_path);
      Unix.listen lfd 64;
      Unix.set_nonblock lfd;
      log srv "listening on %s (pidfile %s, %d jobs, queue %d)" socket_path
        pidfile jobs max_queue;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          ignore (Runtime.Pidlock.sweep_socket socket_path);
          Runtime.Pidlock.release pidfile)
        (fun () -> serve_loop srv ~accept_fd:(Some lfd) ~clients:[]);
      0
  end

open Cmdliner

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (default \\$TMPDIR/ns-serve.sock).")

let stdio =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:"Serve a single client over stdin/stdout instead of a socket.")

let jobs =
  Arg.(
    value & opt int 2
    & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Concurrent solver workers.")

let max_queue =
  Arg.(
    value & opt int 8
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission-control bound: waiting solve requests beyond this are \
           shed with a status of \"shed\" instead of queued.")

let max_retries =
  Arg.(
    value & opt int 2
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"Extra attempts for crashed/hung/timed-out workers.")

let deadline =
  Arg.(
    value & opt float 10.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request wall deadline; the solver returns \"unknown\" \
           at the budget, the supervisor kills runaways at 1.5x + 1s. \
           Requests may override with a deadline_s field.")

let mem_mb =
  Arg.(
    value
    & opt (some int) (Some 1024)
    & info [ "mem-mb" ] ~docv:"MB"
        ~doc:"Per-worker RLIMIT_AS cap; requests may override with mem_mb.")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Append one JSONL record per finished request (fsynced).")

let pidfile =
  Arg.(
    value
    & opt (some string) None
    & info [ "pidfile" ] ~docv:"FILE"
        ~doc:
          "Single-instance pidfile (default SOCKET.pid). Stale files from \
           dead servers are swept on startup; a live owner refuses startup.")

let wal =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Write-ahead-log directory for durable sessions: every mutating \
           session op is logged and fsynced before it is acked, and startup \
           replays the log so acked ops survive a crash. Omit for volatile \
           in-memory sessions.")

let wal_group_commit =
  Arg.(
    value
    & opt (some float) None
    & info [ "wal-group-commit" ] ~docv:"SECONDS"
        ~doc:
          "Group-commit fsync interval: batch WAL fsyncs at most this far \
           apart instead of fsyncing every record. Trades the tail of the \
           durability window for throughput. Default: fsync per record.")

let snapshot_every =
  Arg.(
    value & opt int 256
    & info [ "wal-snapshot-every" ] ~docv:"N"
        ~doc:
          "Write a snapshot (and compact old segments) every N WAL appends. \
           0 disables snapshots; replay then reads the full log.")

let max_sessions =
  Arg.(
    value & opt int 1024
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Cap on live incremental sessions; further \"new\" actions are \
           refused. 0 means unbounded.")

let session_ttl =
  Arg.(
    value & opt float 0.0
    & info [ "session-ttl" ] ~docv:"SECONDS"
        ~doc:
          "Evict sessions idle longer than this (sweep runs about once a \
           second; evictions are WAL-logged). 0 disables eviction.")

let allow_inject =
  Arg.(
    value & flag
    & info [ "allow-inject" ]
        ~doc:
          "Honour the request field inject:\"crash_once\" (worker dies on \
           its first attempt) — for load-test drills only.")

let adaptive =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Select the clause-deletion policy per solve request with the \
           NeuroSelect model (parent-side, through the fingerprint-keyed \
           decision cache — repeated instances skip inference). Solve \
           responses gain policy, cache (\"hit\"/\"miss\"), selection_ms \
           and probability fields; metrics responses report cache \
           counters.")

let checkpoint =
  Arg.(
    value
    & opt (some file) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Trained model checkpoint for --adaptive (untrained weights \
           otherwise). Loading a checkpoint invalidates any cached \
           decisions.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ])

let cmd =
  let doc = "long-lived incremental SAT solve service" in
  Cmd.v
    (Cmd.info "ns-serve" ~doc)
    Term.(
      const run $ socket $ stdio $ jobs $ max_queue $ max_retries $ deadline
      $ mem_mb $ journal $ pidfile $ wal $ wal_group_commit $ snapshot_every
      $ max_sessions $ session_ttl $ allow_inject $ adaptive $ checkpoint
      $ verbose)

let () = exit (Cmd.eval' cmd)
