(* In-memory span recorder for the benchmark's per-layer replay.

   Spans are kept in memory and summarised when the run ends. The
   library's own Obs.Trace emits one JSON line per span (and the
   solver opens a span per propagate call), so timing the replay
   through it would mostly time the tracer; this recorder costs one
   clock read and one list cell per span. *)

type span = {
  name : string;
  id : int;
  parent : int option;
  start : float;
  dur : float;
}

type t = {
  clock : unit -> float;
  enabled : bool;
  mutable spans : span list; (* newest first *)
  mutable stack : int list;
  mutable next_id : int;
}

let create ?(clock = Stats.now) ?(enabled = true) () =
  { clock; enabled; spans = []; stack = []; next_id = 0 }

(* A disabled recorder runs [f] and records nothing: the untraced side
   of the tracing-overhead measurement. *)
let with_span t name f =
  if not t.enabled then f () else
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with [] -> None | p :: _ -> Some p in
  t.stack <- id :: t.stack;
  let start = t.clock () in
  let finish () =
    let dur = t.clock () -. start in
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
    t.spans <- { name; id; parent; start; dur } :: t.spans
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its
   interval that its direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        Hashtbl.replace children p
          ((s.start, s.start +. s.dur)
          :: Option.value (Hashtbl.find_opt children p) ~default:[])
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, s.dur -. covered ~lo:s.start ~hi:(s.start +. s.dur) kids))
    spans

(* Inclusive durations of every span called [name], in seconds. *)
let durations spans name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some s.dur else None)
       spans)

(* Per-name (count, inclusive seconds, self seconds), by name. *)
let summary spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, incl, slf =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.name (n + 1, incl +. s.dur, slf +. self))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
