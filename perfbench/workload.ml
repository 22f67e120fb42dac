(* Seeded inputs for every workload, their in-process reference
   answers, and the checks that compare the server's replies with
   them. Everything here derives from the --seed argument; the server
   only ever sees the generated DIMACS text. *)

module J = Runtime.Journal

type instance = {
  family : string;
  formula : Cnf.Formula.t;
  dimacs : string;
  reference : Cdcl.Solver.result;  (** Default-policy in-process solve. *)
}

let make ?budget family formula =
  let config =
    match budget with
    | None -> Cdcl.Config.default
    | Some p -> Cdcl.Config.with_budget ~max_propagations:p Cdcl.Config.default
  in
  let reference, _ = Cdcl.Solver.solve_formula ~config formula in
  { family; formula; dimacs = Cnf.Dimacs.to_string formula; reference }

(* --- serve-tiny: the loadtest's mixed tiny families ------------------- *)

let tiny_families = [| "ksat"; "php"; "color"; "parity"; "adder" |]

let tiny_formula rng i =
  match i mod 5 with
  | 0 ->
    let n = Util.Rng.int_in rng 8 20 in
    let m = int_of_float (float_of_int n *. Util.Rng.uniform rng 3.0 4.5) in
    Gen.Ksat.generate rng ~num_vars:n ~num_clauses:(max 1 m) ~k:3
  | 1 ->
    let pigeons = Util.Rng.int_in rng 3 5 in
    Gen.Pigeonhole.generate ~pigeons ~holes:(pigeons - 1)
  | 2 ->
    let vertices = Util.Rng.int_in rng 5 8 in
    Gen.Coloring.generate rng ~vertices
      ~edge_prob:(Util.Rng.uniform rng 0.3 0.6)
      ~colors:3
  | 3 -> Gen.Parity.chain rng ~num_vars:(Util.Rng.int_in rng 4 9) ~target:true
  | _ -> Gen.Circuits.adder_miter ~faulty:(Util.Rng.bool rng) 1

let tiny_instance rng i = make tiny_families.(i mod 5) (tiny_formula rng i)

(* --- serve-adaptive: Gen.Dataset's families, small Table-1 sizes ----- *)

(* The Gen.Dataset families whose instances solve in a few milliseconds
   at these sizes. Parity contradictions, pigeonhole formulas and
   multiplier miters at 40+ variables need tens of milliseconds of
   search, and a long solve would only load the two workers: the
   workload exists to load the selector. *)
let adaptive_families = [| "ksat"; "color"; "adder" |]

(* Up to 80 variables, a selection (forward on a miss) plus fork and
   solve stays well inside the 50 ms arrival gap, so a reply waits for
   one later request's selection, not for a later gap. At 120-210
   variables selections took 25-75 ms on a loaded 2-core host, replies
   spilled into later gaps and p99 jumped between gap multiples (50 to
   207 ms across seeds). *)
let min_vars = 40
let max_vars = 80

(* Instances that need more propagations than this under either policy
   the selector can choose are skipped (and counted). *)
let adaptive_prop_cap = 5_000

let solves_within_cap policy formula =
  let config =
    Cdcl.Config.with_budget ~max_propagations:adaptive_prop_cap
      (Cdcl.Config.with_policy policy Cdcl.Config.default)
  in
  fst (Cdcl.Solver.solve_formula ~config formula) <> Cdcl.Solver.Unknown

let adaptive_formula rng family =
  match family with
  | "ksat" ->
    let n = Util.Rng.int_in rng min_vars max_vars in
    let ratio = Util.Rng.uniform rng 3.6 4.1 in
    Gen.Ksat.generate rng ~num_vars:n
      ~num_clauses:(int_of_float (ratio *. float_of_int n))
      ~k:3
  | "color" -> Gen.Coloring.hard_3col rng ~vertices:(Util.Rng.int_in rng 14 26)
  | "adder" ->
    (* The miter is fixed by its width and fault, so only 18 distinct
       ones exist; renaming the variables keeps the circuit and gives
       each draw its own fingerprint, so a fresh request misses the
       decision cache. *)
    let f = Gen.Circuits.adder_miter ~faulty:(Util.Rng.bool rng) (Util.Rng.int_in rng 2 10) in
    let names = Array.init (Cnf.Formula.num_vars f) (fun v -> v + 1) in
    Util.Rng.shuffle rng names;
    Cnf.Formula.relabel f ~perm:(Array.append [| 0 |] names)
  | f -> invalid_arg ("adaptive_formula: " ^ f)

(* The [k]th distinct instance: families round-robin, redrawn until the
   size is in range; returns the instance and how many draws were
   skipped for a reference solve over the cap. *)
let adaptive_instance rng k =
  let family = adaptive_families.(k mod Array.length adaptive_families) in
  let rec draw tries skipped =
    if tries > 200 then failwith ("no " ^ family ^ " instance fits the size and cap");
    let f = adaptive_formula rng family in
    let v = Cnf.Formula.num_vars f in
    if v < min_vars || v > max_vars then draw (tries + 1) skipped
    else
      let inst = make ~budget:adaptive_prop_cap family f in
      if
        inst.reference = Cdcl.Solver.Unknown
        || not (solves_within_cap Cdcl.Policy.frequency_default f)
      then draw (tries + 1) (skipped + 1)
      else (inst, skipped)
  in
  draw 0 0

(* One request of an open-loop schedule: which distinct instance it
   carries, and the DIMACS text actually sent (a clause-shuffled copy
   for some repeats). *)
type request = {
  base : int;  (** Index into the distinct instances. *)
  formula : Cnf.Formula.t;  (** The formula as sent. *)
  text : string;
}

(* A stream of [n] requests in which request [i] repeats one of the
   last [window] distinct instances with probability [repeat_share i],
   half of the repeats verbatim, half with clauses and literals
   shuffled (same fingerprint); every other request is a fresh
   instance. *)
let schedule rng ~n ~repeat_share ~window ~fresh =
  let distinct = Hashtbl.create 256 in
  let count = ref 0 in
  let requests =
    Array.init n (fun i ->
        if !count > 0 && Util.Rng.float rng 1.0 < repeat_share i then begin
          let base = !count - 1 - Util.Rng.int rng (min window !count) in
          let (inst : instance) = Hashtbl.find distinct base in
          if Util.Rng.bool rng then
            { base; formula = inst.formula; text = inst.dimacs }
          else
            let f = Cnf.Formula.shuffle rng inst.formula in
            { base; formula = f; text = Cnf.Dimacs.to_string f }
        end
        else begin
          let base = !count in
          let (inst : instance) = fresh base in
          Hashtbl.add distinct base inst;
          incr count;
          { base; formula = inst.formula; text = inst.dimacs }
        end)
  in
  (Array.init !count (Hashtbl.find distinct), requests)

let solve_payload i text =
  Runtime.Journal.encode
    [
      ("op", J.String "solve");
      ("id", J.String (Printf.sprintf "r%d" i));
      ("dimacs", J.String text);
    ]

(* --- verification ------------------------------------------------------ *)

(* "1 -2 3" -> assignment indexed by variable (index 0 unused). *)
let model_of_string ~num_vars s =
  let m = Array.make (num_vars + 1) false in
  List.iter
    (fun l ->
      let v = Cnf.Lit.var l in
      if v >= 1 && v <= num_vars then m.(v) <- Cnf.Lit.is_pos l)
    (Nserve.Session_store.lits_of_string s);
  m

(* Does a reported verdict agree with the reference, and does a SAT
   model satisfy the formula that was sent? *)
let check_verdict ~formula ~reference fields =
  match (J.find_string fields "verdict", reference) with
  | Some "sat", Cdcl.Solver.Sat _ -> (
    match J.find_string fields "model" with
    | None -> false
    | Some s ->
      Cdcl.Solver.check_model formula
        (model_of_string ~num_vars:(Cnf.Formula.num_vars formula) s))
  | Some "unsat", Cdcl.Solver.Unsat -> true
  | _ -> false

(* The fate of one solve request given its reply. [policy_ok] checks
   the adaptive policy field. *)
let fate_of_solve ~formula ~reference ~latency ?(policy_ok = fun _ -> true)
    reply =
  match reply with
  | None -> Benchkit.Stats.Unanswered
  | Some fields -> (
    match J.find_string fields "status" with
    | Some "shed" -> Benchkit.Stats.Shed
    | Some "ok" -> (
      match J.find_string fields "verdict" with
      | Some "unknown" -> Benchkit.Stats.Error
      | _ ->
        if check_verdict ~formula ~reference fields && policy_ok fields then
          Benchkit.Stats.Ok latency
        else Benchkit.Stats.Wrong)
    | _ -> Benchkit.Stats.Error)
