(* nsbench: the repository benchmark.

     nsbench --server PATH --workload NAME --seed N --seconds S --trace 0|1

   Workloads: serve-tiny and serve-adaptive (see README.md for why
   each exists and what it predicts). Every reply is verified against
   an in-process reference. The last line of stdout
   is one JSON object {correct, attempted, failed, metrics}: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1. The line
   before it stamps the configuration and carries every number
   computed. Exit status 0 only when every answer was right. *)

module J = Runtime.Journal
module Stats = Benchkit.Stats
module W = Workload

let now = Stats.now
let ms = Stats.ms
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("nsbench: " ^ s)) fmt

let end_to_end =
  [
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("goodput_qps", "1/s");
    ("setup_s", "s");
    ("rss_mb", "MB");
  ]

let per_layer =
  [
    ("runtime.notice_wait_ms", "ms");
    ("runtime.fork_ms", "ms");
    ("runtime.client_overhead_ms", "ms");
    ("runtime.codec_us", "us");
    ("runtime.shed", "count");
    ("runtime.worker_retries", "count");
    ("runtime.queued_max", "count");
    ("cnf.parse_ms", "ms");
    ("cnf.fingerprint_ms", "ms");
    ("graph.build_ms", "ms");
    ("core.forward_ms", "ms");
    ("core.select_hit_ms", "ms");
    ("core.select_miss_ms", "ms");
    ("core.cache_hit_ratio", "ratio");
    ("core.loop_busy_share", "ratio");
    ("core.batch_forward_ms_per_instance", "ms");
    ("core.train_epoch_s", "s");
    ("nn.step_ms", "ms");
    ("tensor.gemm_ms", "ms");
    ("tensor.forward_gflop", "GFLOP");
    ("tensor.forward_mbytes", "MB");
  ]
  @ List.map (fun f -> ("cdcl.solve_ms." ^ f, "ms")) Replay.families
  @ [
      ("cdcl.props_per_s", "1/s");
      ("cdcl.propagations", "count");
      ("cdcl.conflicts", "count");
      ("cdcl.reduces", "count");
      ("cdcl.deleted", "count");
      ("serve.apply_add_ms", "ms");
      ("serve.apply_solve_ms", "ms");
      ("serve.recovery_ms", "ms");
      ("bench.gen_lag_ms", "ms");
      ("bench.repeat_share", "ratio");
      ("bench.trace_overhead", "ratio");
    ]

(* --- run context ------------------------------------------------------- *)

type ctx = {
  server : string;
  seed : int;
  seconds : int;
  trace : bool;
  dir : string;  (** Per-run scratch directory inside the checkout. *)
}

(* What one workload hands back: named values (end-to-end and
   per-layer mixed), op counts, and settings for the stamp. *)
type outcome = {
  values : (string * float) list;
  counts : Stats.counts;
  settings : (string * J.value) list;
}

let pct_ms samples p =
  match Stats.percentile samples p with
  | Ok v -> ms v
  | Error e -> failwith e

let max_int_field fields name =
  List.fold_left
    (fun m f -> max m (Option.value (J.find_int f name) ~default:0))
    0 fields

let int_field f name = float_of_int (Option.value (J.find_int f name) ~default:0)

let start_server ~socket ctx args =
  Proc.start ~exe:ctx.server
    ~socket:(Filename.concat ctx.dir socket)
    ~log:(Filename.concat ctx.dir "serve.log")
    args

let second_conn (s : Proc.server) =
  let fd = Proc.connect s ~deadline:(now () +. 10.0) in
  { Client.fd; reader = Runtime.Frame.create_reader () }

(* --- serve-tiny / serve-adaptive: two-phase open loop ------------------ *)

(* Two phases at fixed arrival gaps: the nominal rate gives p50/p99,
   the high rate gives goodput_qps. The high rates sit below what the
   server sustains on a 2-core host. Driven past saturation (1500/s
   tiny, 128/s adaptive) goodput measured capacity, and capacity on
   such a host followed the host's speed: it spread by 0.13-0.23 of
   its median across seeds, too much to gate a change on. *)
type open_spec = {
  name : string;
  nominal_qps : float;
  high_qps : float;
  limit_s : float;  (** Latency limit for goodput. *)
  high_repeat_share : float;
      (** Share of high-rate requests that repeat an earlier instance.
          Nominal requests never do. *)
  adaptive : bool;
}

let tiny_spec =
  {
    name = "serve-tiny";
    nominal_qps = 32.0;
    high_qps = 256.0;
    limit_s = 0.1;
    high_repeat_share = 0.0;
    adaptive = false;
  }

(* The nominal phase sends fresh instances only, so p50/p99 carry a
   forward on every request, as in the paper, where the selector runs
   once per instance. The high-rate phase repeats half of its requests
   from the last 128 distinct instances, so the decision cache is hit
   there. Both numbers are an arbitrary choice, not taken from a trace
   or from the paper: half makes hits and misses equally common, and
   128 stays well inside the server's 512-entry cache, so a repeat is
   always a hit. *)
let adaptive_spec =
  {
    name = "serve-adaptive";
    nominal_qps = 20.0;
    high_qps = 64.0;
    limit_s = 0.25;
    high_repeat_share = 0.5;
    adaptive = true;
  }

let repeat_window = 128

let phase_gap = 0.5
let setup_spawns = 25

let run_open ctx spec =
  (* At least 1024 nominal requests, so p99 has 10 beyond it. *)
  let n_nom =
    max 1024 (int_of_float (spec.nominal_qps *. 0.75 *. float_of_int ctx.seconds))
  in
  let n_high = int_of_float (spec.high_qps *. 0.25 *. float_of_int ctx.seconds) in
  let n = n_nom + n_high in
  let rng = Util.Rng.create ((ctx.seed * 7919) + if spec.adaptive then 2 else 1) in
  let skipped = ref 0 in
  let t_gen = now () in
  let fresh k =
    if spec.adaptive then begin
      let inst, s = W.adaptive_instance rng k in
      skipped := !skipped + s;
      inst
    end
    else W.tiny_instance rng k
  in
  let repeat_share i = if i < n_nom then 0.0 else spec.high_repeat_share in
  let distinct, requests = W.schedule rng ~n ~repeat_share ~window:repeat_window ~fresh in
  log "%s: %d requests over %d distinct instances (%d skipped over the cap) in %.1f s"
    spec.name n (Array.length distinct) !skipped (now () -. t_gen);
  let due = Stats.due_times ~rate:spec.nominal_qps ~count:n_nom ~offset:0.0 in
  let payloads = Array.mapi (fun i (r : W.request) -> W.solve_payload i r.text) requests in
  (* --adaptive serves weights from a checkpoint; the benchmark loads
     the same file to know which policy each reply must carry. *)
  let ckpt = Filename.concat ctx.dir "model.ckpt" in
  let args = [ "--jobs"; "2" ] in
  let args, expected =
    if not spec.adaptive then (args, [||])
    else begin
      Core.Model.save ckpt (Core.Model.create { Core.Model.paper_config with seed = 1000 + ctx.seed });
      let model = Core.Model.create Core.Model.paper_config in
      Core.Model.load ckpt model;
      let sel =
        Core.Selector.select_policy_batch ~use_cache:false model
          (Array.to_list (Array.map (fun (i : W.instance) -> i.formula) distinct))
      in
      (args @ [ "--adaptive"; "--checkpoint"; ckpt ], Array.of_list sel)
    end
  in
  let warm = W.make "warm" (W.adaptive_formula (Util.Rng.create ctx.seed) "color") in
  (* Set-up: spawn to first pong, plus one warm solve with --adaptive
     (it loads the checkpoint and builds the inference engine). Extra
     set-ups run on a socket of their own, a third each before the
     nominal phase, between the phases and after the high-rate phase,
     so that the median spans the whole run rather than one moment of
     the host. *)
  let setup = ref [] in
  let set_up socket =
    let t0 = now () in
    let s, fd, reader = start_server ~socket ctx args in
    let conn = { Client.fd; reader } in
    if spec.adaptive then
      ignore (Client.call conn ~id:"warm" [ ("op", J.String "solve"); ("dimacs", J.String warm.dimacs) ]);
    setup := (now () -. t0) :: !setup;
    (s, conn)
  in
  let setups k =
    for _ = 1 to k do
      let s, conn = set_up "setup.sock" in
      Unix.close conn.fd;
      ignore (Proc.stop s)
    done
  in
  let per_slot = (setup_spawns - 1) / 3 in
  setups per_slot;
  let server, conn_a = set_up "s.sock" in
  let conns = [| conn_a; second_conn server |] in
  let nom = Client.open_loop ~conns ~payloads ~lo:0 ~due ~drain:10.0 () in
  Unix.sleepf phase_gap;
  let between = Client.call conn_a ~id:"between" [ ("op", J.String "metrics") ] in
  setups per_slot;
  let high_due = Stats.due_times ~rate:spec.high_qps ~count:n_high ~offset:0.0 in
  let high =
    Client.open_loop ~poll_every:0.25 ~conns ~payloads ~lo:n_nom ~due:high_due ~drain:10.0 ()
  in
  let final = Client.call conn_a ~id:"final" [ ("op", J.String "metrics") ] in
  let rss = Proc.vm_hwm_mb server.Proc.pid in
  Array.iter (fun (c : Client.conn) -> Unix.close c.fd) conns;
  ignore (Proc.stop server);
  setups (setup_spawns - 1 - (2 * per_slot));
  (* Verification and fates. *)
  let policy_ok i fields =
    if not spec.adaptive then true
    else
      let e = expected.(requests.(i).base) in
      J.find_string fields "policy" = Some (Cdcl.Policy.name e.Core.Selector.policy)
      || Float.abs (e.probability -. 0.5) < 1e-6
  in
  (* Request i < n_nom is nominal, the rest the high-rate phase; each
     is timed from its due time. *)
  let sent_at = Array.append nom.sent_at high.sent_at in
  let reply_at = Array.append nom.reply_at high.reply_at in
  let replies = Array.append nom.replies high.replies in
  let start i = if i < n_nom then nom.t0 +. due.(i) else high.t0 +. high_due.(i - n_nom) in
  let fates =
    Array.mapi
      (fun i (req : W.request) ->
        W.fate_of_solve ~formula:req.formula ~reference:distinct.(req.base).reference
          ~latency:(reply_at.(i) -. start i) ~policy_ok:(policy_ok i) replies.(i))
      requests
  in
  let nominal = Array.sub fates 0 n_nom in
  let latencies = Array.map (function Stats.Ok l -> l | _ -> Float.infinity) nominal in
  let last_of a = Array.fold_left (fun m t -> if Float.is_finite t then Float.max m t else m) 0.0 a in
  let wall = last_of reply_at -. nom.t0 in
  let high_wall = last_of high.reply_at -. high.t0 in
  let replies_ok =
    List.filter_map
      (fun i ->
        match (fates.(i), replies.(i)) with
        | Stats.Ok _, Some f -> Some (i, f)
        | _ -> None)
      (List.init n Fun.id)
  in
  let field f name = Option.value (J.find_float f name) ~default:0.0 in
  let selection_total = List.fold_left (fun a (_, f) -> a +. field f "selection_ms") 0.0 replies_ok in
  let nominal_ok = List.filter (fun (i, _) -> i < n_nom) replies_ok in
  let client_overhead =
    Array.of_list
      (List.map
         (fun (i, f) ->
           (ms (reply_at.(i) -. sent_at.(i)) -. field f "latency_ms" -. field f "selection_ms")
           /. 1000.0)
         nominal_ok)
  in
  let lags = Stats.lags ~due:(Array.map (fun d -> nom.t0 +. d) due) ~sent:nom.sent_at in
  (* Cache hits and lookups of the high-rate phase only. *)
  let delta name = int_field final name -. int_field between name in
  let hits = delta "cache_hits" and misses = delta "cache_misses" in
  (* Measured repeat shares: a request repeats when its instance's
     fingerprint was sent before, whatever the schedule meant. *)
  let seen = Hashtbl.create 1024 in
  let repeated =
    Array.map
      (fun (q : W.request) ->
        let fp = Cnf.Fingerprint.compute q.formula in
        let r = Hashtbl.mem seen fp in
        Hashtbl.replace seen fp ();
        r)
      requests
  in
  let share lo len =
    let k = ref 0 in
    for i = lo to lo + len - 1 do
      if repeated.(i) then incr k
    done;
    float_of_int !k /. float_of_int (max 1 len)
  in
  let values =
    [
      ("p50_ms", pct_ms latencies 50.0);
      ("p99_ms", pct_ms latencies 99.0);
      ( "goodput_qps",
        Stats.goodput ~limit:spec.limit_s ~duration:high_wall (Array.sub fates n_nom n_high) );
      ("setup_s", Stats.median (Array.of_list !setup));
      ("rss_mb", rss);
      ("runtime.client_overhead_ms", pct_ms client_overhead 50.0);
      ("runtime.shed", int_field final "shed");
      ("runtime.worker_retries", int_field final "worker_retries");
      ("runtime.queued_max", float_of_int (max_int_field high.polls "queued"));
      ("core.cache_hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      ("core.loop_busy_share", selection_total /. ms wall);
      ("bench.gen_lag_ms", pct_ms lags 99.0);
      ("bench.repeat_share", share n_nom n_high);
    ]
  in
  let values =
    if not ctx.trace then values
    else begin
      (* Notice wait: the server's latency minus the same request's
         fork + solve done in-process, on nominal requests. Fork cost
         grows with the forking process's heap, so compact first. *)
      Gc.compact ();
      let sample = List.filteri (fun k _ -> k mod (max 1 (n_nom / 100)) = 0) nominal_ok in
      let spans = Benchkit.Span.create () in
      let waits =
        Array.of_list
          (List.map
             (fun (i, f) ->
               let policy = J.find_string f "policy" in
               (field f "latency_ms" -. Replay.fork_solve_ms spans ?policy requests.(i).text)
               /. 1000.0)
             sample)
      in
      let model = Core.Model.create Core.Model.paper_config in
      if spec.adaptive then Core.Model.load ckpt model;
      let replay_requests =
        Array.map
          (fun (q : W.request) ->
            { Replay.text = q.text; formula = q.formula; family = distinct.(q.base).family })
          (Array.sub requests 0 (min 150 n))
      in
      let rp =
        Replay.run ~model ~requests:replay_requests
          ~wal_dir:(Filename.concat ctx.dir "replay-wal")
      in
      (("runtime.notice_wait_ms", pct_ms waits 50.0) :: values) @ rp
    end
  in
  let settings =
    [
      ("server_flags", J.String (String.concat " " args));
      ("nominal_qps", J.Float spec.nominal_qps);
      ("nominal_requests", J.Int n_nom);
      ("high_qps", J.Float spec.high_qps);
      ("high_requests", J.Int n_high);
      ("high_s", J.Float high_wall);
      ("latency_limit_ms", J.Float (ms spec.limit_s));
      ("high_repeat_share_target", J.Float spec.high_repeat_share);
      ("nominal_repeat_share", J.Float (share 0 n_nom));
      ("repeat_window", J.Int repeat_window);
      ("wall_s", J.Float wall);
      ("distinct_instances", J.Int (Array.length distinct));
      ("skipped_over_prop_cap", J.Int !skipped);
      ("connections", J.Int (Array.length conns));
    ]
  in
  { values; counts = Stats.counts fates; settings }

(* --- output -------------------------------------------------------------- *)

let json_float f = Printf.sprintf "%.17g" f

let source_digest () =
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                  || Filename.check_suffix p ".c" || e = "dune"
          then files := p :: !files)
        entries
  in
  List.iter walk [ "lib"; "bin" ];
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun p -> p ^ Digest.to_hex (Digest.file p)) (List.sort compare !files))))

let git_commit () =
  let read p = try Some (String.trim (In_channel.with_open_text p In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    Option.value (read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))) ~default:"unknown"
  | Some sha -> sha
  | None -> "unknown (not a git checkout)"

let print_result ctx ~workload o =
  let wanted = if ctx.trace then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name o.values with
    | Some v when Float.is_finite v -> v
    | Some v -> failwith (Printf.sprintf "metric %s is %g" name v)
    | None -> failwith ("metric missing: " ^ name)
  in
  let c = o.counts in
  let failed = c.error + c.wrong + c.unanswered in
  let obj kvs = "{" ^ String.concat ", " kvs ^ "}" in
  let q s = "\"" ^ String.escaped s ^ "\"" in
  let stamp =
    [
      ("workload", J.String workload);
      ("seed", J.Int ctx.seed);
      ("seconds", J.Int ctx.seconds);
      ("trace", J.Bool ctx.trace);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("commit", J.String (git_commit ()));
      ("source_md5", J.String (source_digest ()));
      ("sent", J.Int c.sent);
      ("ok", J.Int c.ok);
      ("shed", J.Int c.shed);
      ("error", J.Int c.error);
      ("wrong", J.Int c.wrong);
      ("unanswered", J.Int c.unanswered);
    ]
    @ o.settings
  in
  print_endline
    (obj
       [
         q "stamp" ^ ": " ^ J.encode stamp;
         q "all"
         ^ ": "
         ^ obj (List.map (fun (k, v) -> q k ^ ": " ^ json_float v)
                  (List.filter (fun (_, v) -> Float.is_finite v) o.values));
       ]);
  let metrics =
    List.map
      (fun (name, unit) ->
        q name ^ ": " ^ obj [ q "value" ^ ": " ^ json_float (value name); q "unit" ^ ": " ^ q unit ])
      wanted
  in
  print_endline
    (obj
       [
         q "correct" ^ ": " ^ if failed = 0 then "true" else "false";
         q "attempted" ^ ": " ^ string_of_int c.sent;
         q "failed" ^ ": " ^ string_of_int failed;
         q "metrics" ^ ": " ^ obj metrics;
       ]);
  if failed > 0 then begin
    log "%d failed ops (%d wrong, %d error, %d unanswered)" failed c.wrong c.error
      c.unanswered;
    exit 1
  end

(* --- main --------------------------------------------------------------- *)

let () =
  let server = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 20
  and trace = ref 0 in
  Arg.parse
    [
      ("--server", Arg.Set_string server, "PATH ns-serve executable");
      ("--workload", Arg.Set_string workload, "NAME serve-tiny|serve-adaptive");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nsbench --server PATH --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    log "bad --seconds or --trace";
    exit 2
  end;
  let root = ".bench_run" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  Proc.rm_rf dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      Proc.stop_all ();
      Proc.rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let ctx = { server = !server; seed = !seed; seconds = !seconds; trace = !trace = 1; dir } in
  let run () =
    match !workload with
    | "serve-tiny" -> run_open ctx tiny_spec
    | "serve-adaptive" -> run_open ctx adaptive_spec
    | w -> failwith ("unknown workload " ^ w)
  in
  match run () with
  | o -> print_result ctx ~workload:!workload o
  | exception Failure msg ->
    log "%s" msg;
    exit 1
