(* Per-layer replay: the workload's own inputs, run in-process through
   each layer's public functions with a span around every call. Used
   only by --trace 1 runs, after the end-to-end measurement is over. *)

module Span = Benchkit.Span
module Stats = Benchkit.Stats

type request = {
  text : string;  (** DIMACS as sent to the server. *)
  formula : Cnf.Formula.t;
  family : string;
}

let ms = Stats.ms
let now = Stats.now

(* Median of the named spans in milliseconds; 0 when none ran. *)
let median_ms spans name =
  let d = Span.durations spans name in
  if Array.length d = 0 then 0.0 else ms (Stats.median d)

(* The worker-side work of one one-shot solve, as ns-serve's worker
   does it: parse, solve, encode the reply payload. *)
let worker_payload ?policy text () =
  let f = Cnf.Dimacs.parse_string text in
  let config =
    match Option.bind policy Cdcl.Policy.of_string with
    | Some p -> Cdcl.Config.with_policy p Cdcl.Config.default
    | None -> Cdcl.Config.default
  in
  let result, _ = Cdcl.Solver.solve_formula ~config f in
  Ok
    (Runtime.Journal.encode
       [
         ("verdict", Runtime.Journal.String (Nserve.Session_store.verdict_name result));
         ( "model",
           match result with
           | Cdcl.Solver.Sat m ->
             Runtime.Journal.String (Nserve.Session_store.model_to_string m)
           | _ -> Runtime.Journal.Null );
       ])

let worker_limits =
  { Runtime.Supervisor.default_limits with deadline_seconds = Some 30.0 }

(* In-process fork + solve time of one request, in ms. *)
let fork_solve_ms rec_ ?policy text =
  let t0 = now () in
  (match
     Span.with_span rec_ "runtime.fork_solve" (fun () ->
         Runtime.Supervisor.run worker_limits (worker_payload ?policy text))
   with
  | Runtime.Supervisor.Completed (Ok _) -> ()
  | v -> failwith ("replay worker: " ^ Runtime.Supervisor.verdict_to_string v));
  ms (now () -. t0)

(* Model arithmetic of one forward, from Model.config and the graph's
   sizes (not measured): multiply-adds of every linear layer, message
   aggregation, linear attention and the head, and the float64 bytes
   those kernels read and write. *)
let forward_cost (cfg : Core.Model.config) ~vars ~clauses ~edges =
  let h = float_of_int cfg.hidden_dim in
  let v = float_of_int vars and c = float_of_int clauses and e = float_of_int edges in
  let flops = ref 0.0 and bytes = ref 0.0 in
  let add f b =
    flops := !flops +. f;
    bytes := !bytes +. (8.0 *. b)
  in
  let linear rows din dout =
    add (2.0 *. rows *. din *. dout) ((rows *. din) +. (din *. dout) +. (rows *. dout))
  in
  let aggregate recv = add ((2.0 *. e *. h) +. (recv *. h)) ((4.0 *. e *. h) +. (2.0 *. recv *. h)) in
  let first = ref true in
  for _ = 1 to cfg.hgt_layers do
    for _ = 1 to cfg.mpnn_per_hgt do
      let din = if !first then 1.0 else h in
      first := false;
      linear v din h;
      linear c din h;
      aggregate c;
      aggregate v;
      linear v din h;
      linear c din h;
      linear v h h;
      linear c h h
    done;
    if cfg.use_attention then begin
      for _ = 1 to 3 do
        linear v h h
      done;
      add (4.0 *. v *. h *. h) ((4.0 *. v *. h) +. (2.0 *. h *. h));
      add (4.0 *. v *. h) (4.0 *. v *. h)
    end
  done;
  let hh = float_of_int cfg.head_hidden in
  add (2.0 *. v *. h) ((v *. h) +. (2.0 *. h));
  linear 1.0 (2.0 *. h) hh;
  linear 1.0 hh 1.0;
  (!flops /. 1e9, !bytes /. 1e6)

(* Every family a workload sends (serve-adaptive's are a subset). *)
let families = Array.to_list Workload.tiny_families

(* The request stream through the parent-side layers: parse,
   fingerprint, graph, forward on first sight, cached selection. Each
   request is one "replay.request" span over its layer spans, so its
   self time is what the stages leave out. *)
let request_pass rec_ model requests =
  let seen = Hashtbl.create 64 in
  let hit = ref [] and miss = ref [] in
  Core.Selector.clear_cache ();
  Array.iter
    (fun r ->
      Span.with_span rec_ "replay.request" (fun () ->
          let f = Span.with_span rec_ "cnf.parse" (fun () -> Cnf.Dimacs.parse_string r.text) in
          let fp = Span.with_span rec_ "cnf.fingerprint" (fun () -> Cnf.Fingerprint.compute f) in
          let g = Span.with_span rec_ "graph.build" (fun () -> Satgraph.Bigraph.of_formula f) in
          if not (Hashtbl.mem seen fp) then begin
            Hashtbl.add seen fp ();
            ignore (Span.with_span rec_ "core.forward" (fun () -> Core.Model.predict model g))
          end;
          let t0 = now () in
          let s =
            Span.with_span rec_ "core.select" (fun () ->
                Core.Selector.select_policy ~use_cache:true model f)
          in
          let d = now () -. t0 in
          if s.Core.Selector.cached then hit := d :: !hit else miss := d :: !miss))
    requests;
  (Array.of_list !hit, Array.of_list !miss)

let run ~model ~requests ~wal_dir =
  let rec_ = Span.create () in
  let off = Span.create ~enabled:false () in
  (* Tracing overhead: the same request pass without and with spans,
     alternating three times, medians compared, so warm-up and drift
     in the host's speed cancel. *)
  let timed_pass r =
    let t0 = now () in
    let x = request_pass r model requests in
    (x, now () -. t0)
  in
  let untraced = Array.make 3 0.0 and traced = Array.make 3 0.0 in
  let hit, miss = ref [||], ref [||] in
  for k = 0 to 2 do
    untraced.(k) <- snd (timed_pass off);
    let (h, m), t = timed_pass rec_ in
    traced.(k) <- t;
    if k = 0 then begin
      hit := h;
      miss := m
    end
  done;
  let traced = Stats.median traced and untraced = Stats.median untraced in
  let hit = !hit and miss = !miss in
  (* Hits: a second lookup of distinct instances is always cached. *)
  let hit =
    if Array.length hit > 0 then hit
    else
      Array.map
        (fun r ->
          let t0 = now () in
          ignore (Core.Selector.select_policy ~use_cache:true model r.formula);
          now () -. t0)
        (Array.sub requests 0 (min 32 (Array.length requests)))
  in
  (* Distinct formulas, in first-seen order. *)
  let distinct =
    let seen = Hashtbl.create 64 in
    List.rev
      (Array.fold_left
         (fun acc r ->
           let fp = Cnf.Fingerprint.compute r.formula in
           if Hashtbl.mem seen fp then acc
           else begin
             Hashtbl.add seen fp ();
             r :: acc
           end)
         [] requests)
  in
  (* CDCL: default-policy solves, per family. *)
  let totals = Cdcl.Solver_stats.create () in
  let solve_s = ref 0.0 in
  let by_family = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let t0 = now () in
      let _, st =
        Span.with_span rec_ "cdcl.solve" (fun () -> Cdcl.Solver.solve_formula r.formula)
      in
      let d = now () -. t0 in
      solve_s := !solve_s +. d;
      Hashtbl.replace by_family r.family
        (d :: Option.value (Hashtbl.find_opt by_family r.family) ~default:[]);
      totals.propagations <- totals.propagations + st.Cdcl.Solver_stats.propagations;
      totals.conflicts <- totals.conflicts + st.conflicts;
      totals.reduces <- totals.reduces + st.reduces;
      totals.deleted_total <- totals.deleted_total + st.deleted_total)
    distinct;
  (* Runtime: fork with a no-op payload, and the wire codec. *)
  for _ = 1 to 30 do
    ignore
      (Span.with_span rec_ "runtime.fork" (fun () ->
           Runtime.Supervisor.run worker_limits (fun () -> Ok "")))
  done;
  Array.iteri
    (fun i r ->
      Span.with_span rec_ "runtime.codec" (fun () ->
          ignore (Runtime.Journal.parse_line (Workload.solve_payload i r.text))))
    requests;
  (* Batched forward over the distinct graphs, 32 per pack. *)
  let graphs = List.map (fun r -> Satgraph.Bigraph.of_formula r.formula) distinct in
  List.iter
    (fun c ->
      ignore
        (Span.with_span rec_ "core.batch_forward" (fun () -> Core.Model.forward_batch model c)))
    (Stats.chunks 32 graphs);
  let batch_ms_per_instance =
    ms (Stats.sum (Span.durations (Span.spans rec_) "core.batch_forward"))
    /. float_of_int (max 1 (List.length graphs))
  in
  (* Training: one epoch over up to 8 labelled instances, then single
     steps (forward_logit, backward, Adam). *)
  let train_set = List.filteri (fun i _ -> i < 8) distinct in
  let examples =
    List.mapi
      (fun i r ->
        let o = Core.Labeler.label_instance ~budget:20_000 r.formula in
        Core.Trainer.example_of_formula ~name:(string_of_int i)
          ~label:o.Core.Labeler.label r.formula)
      train_set
  in
  let trainee = Core.Model.create Core.Model.paper_config in
  ignore
    (Span.with_span rec_ "core.train_epoch" (fun () ->
         Core.Trainer.train ~epochs:1 trainee examples));
  let opt = Nn.Optim.adam ~lr:1e-3 (Core.Model.params trainee) in
  List.iter
    (fun (e : Core.Trainer.example) ->
      Span.with_span rec_ "nn.step" (fun () ->
          let tape = Nn.Ad.tape () in
          let logit = Core.Model.forward_logit trainee tape e.graph in
          let loss = Nn.Ad.bce_with_logits tape logit (if e.label then 1.0 else 0.0) in
          Nn.Ad.backward tape loss;
          Nn.Optim.step opt))
    examples;
  (* GEMM at the forward's largest shape for the median instance:
     clause rows x hidden times hidden x hidden. *)
  let sizes =
    List.sort compare
      (List.map
         (fun g ->
           ( Satgraph.Bigraph.num_nodes g,
             (g.Satgraph.Bigraph.num_vars, g.num_clauses, Satgraph.Bigraph.num_edges g) ))
         graphs)
  in
  let _, (mv, mc, me) = List.nth sizes (List.length sizes / 2) in
  let cfg = Core.Model.config model in
  let hd = cfg.hidden_dim in
  let a = Tensor.Mat.create (max 1 mc) hd 0.5 and b = Tensor.Mat.create hd hd 0.25 in
  let out = Tensor.Mat.zeros (max 1 mc) hd in
  for _ = 1 to 50 do
    Span.with_span rec_ "tensor.gemm" (fun () -> Tensor.Mat.matmul_into ~out a b)
  done;
  let gflop, mbytes = forward_cost cfg ~vars:mv ~clauses:mc ~edges:me in
  (* Durable sessions: each distinct instance as a session, clause by
     clause, on a per-record-fsync WAL; then recovery over it. *)
  let store_config =
    { Nserve.Session_store.default_config with wal_dir = Some wal_dir }
  in
  (match Nserve.Session_store.create store_config with
  | Error e -> failwith ("replay store: " ^ Runtime.Error.to_string e)
  | Ok (store, _) ->
    List.iteri
      (fun i r ->
        if i < 16 then begin
          let sid = Printf.sprintf "s%d" i in
          let apply op = Nserve.Session_store.apply store ~sid op in
          ignore (apply (Nserve.Session_store.New (Cnf.Formula.num_vars r.formula)));
          Cnf.Formula.iter_clauses
            (fun c ->
              let text =
                String.concat " "
                  (Array.to_list (Array.map (fun l -> string_of_int (Cnf.Lit.to_dimacs l)) c))
              in
              ignore
                (Span.with_span rec_ "serve.apply_add" (fun () ->
                     apply (Nserve.Session_store.Add (text ^ " 0")))))
            r.formula;
          ignore
            (Span.with_span rec_ "serve.apply_solve" (fun () ->
                 apply (Nserve.Session_store.Solve "")))
        end)
      distinct;
    Nserve.Session_store.close store);
  (match
     Span.with_span rec_ "serve.recovery" (fun () ->
         Nserve.Session_store.create
           { Nserve.Session_store.default_config with wal_dir = Some wal_dir })
   with
  | Ok (store, _) -> Nserve.Session_store.close store
  | Error e -> failwith ("replay recovery: " ^ Runtime.Error.to_string e));
  let spans = Span.spans rec_ in
  let family_ms f =
    match Hashtbl.find_opt by_family f with
    | None -> 0.0
    | Some l -> ms (Stats.mean (Array.of_list l))
  in
  let med a = if Array.length a = 0 then 0.0 else ms (Stats.median a) in
  (* The stage breakdown, for a reader of the run's stderr. *)
  List.iter
    (fun (name, (n, incl, self)) ->
      Printf.eprintf "nsbench: span %-22s n=%-6d incl_ms=%-10.3f self_ms=%.3f\n" name n
        (ms incl) (ms self))
    (Span.summary spans);
  [
    ("runtime.fork_ms", median_ms spans "runtime.fork");
    ("runtime.codec_us", 1000.0 *. median_ms spans "runtime.codec");
    ("cnf.parse_ms", median_ms spans "cnf.parse");
    ("cnf.fingerprint_ms", median_ms spans "cnf.fingerprint");
    ("graph.build_ms", median_ms spans "graph.build");
    ("core.forward_ms", median_ms spans "core.forward");
    ("core.select_hit_ms", med hit);
    ("core.select_miss_ms", med miss);
    ("core.batch_forward_ms_per_instance", batch_ms_per_instance);
    ("core.train_epoch_s", median_ms spans "core.train_epoch" /. 1000.0);
    ("nn.step_ms", median_ms spans "nn.step");
    ("tensor.gemm_ms", median_ms spans "tensor.gemm");
    ("tensor.forward_gflop", gflop);
    ("tensor.forward_mbytes", mbytes);
  ]
  @ List.map (fun f -> ("cdcl.solve_ms." ^ f, family_ms f)) families
  @ [
      ( "cdcl.props_per_s",
        if !solve_s > 0.0 then float_of_int totals.propagations /. !solve_s else 0.0 );
      ("cdcl.propagations", float_of_int totals.propagations);
      ("cdcl.conflicts", float_of_int totals.conflicts);
      ("cdcl.reduces", float_of_int totals.reduces);
      ("cdcl.deleted", float_of_int totals.deleted_total);
      ("serve.apply_add_ms", median_ms spans "serve.apply_add");
      ("serve.apply_solve_ms", median_ms spans "serve.apply_solve");
      ("serve.recovery_ms", median_ms spans "serve.recovery");
      ("bench.trace_overhead", (traced -. untraced) /. untraced);
    ]
