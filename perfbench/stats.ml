(* Arithmetic behind every number the benchmark prints: percentiles
   that refuse thin tails, goodput with misses counted, and generator
   lag measured against the schedule. Pure functions (apart from the
   clock), tested in test_benchkit.ml. *)

let now = Unix.gettimeofday
let ms seconds = 1000.0 *. seconds

(* [l] cut into consecutive pieces of [size] (the last may be
   shorter), in order. *)
let chunks size l =
  if size < 1 then invalid_arg "Stats.chunks: size < 1";
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of [samples]. A tail percentile is only
   reported when at least [min_beyond] samples lie strictly beyond its
   rank; otherwise the run did not carry enough requests to say
   anything about that tail, and the caller must fail rather than
   print a number that is really the maximum. *)
let percentile ?(min_beyond = 10) samples p =
  let n = Array.length samples in
  if n = 0 then Error "percentile: no samples"
  else if p <= 0.0 || p > 100.0 then
    Error (Printf.sprintf "percentile: p=%g outside (0, 100]" p)
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    let beyond = n - rank in
    if p < 100.0 && beyond < min_beyond then
      Error
        (Printf.sprintf
           "percentile: p%g of %d samples leaves %d beyond it (need %d)" p n
           beyond min_beyond)
    else Ok (sorted samples).(rank - 1)

let median samples =
  match percentile ~min_beyond:0 samples 50.0 with
  | Ok v -> v
  | Error _ -> Float.nan

let mean samples =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let sum samples = Array.fold_left ( +. ) 0.0 samples

(* What became of one request. [Ok] means answered "ok" and verified
   against the in-process reference; everything else is a miss. *)
type fate =
  | Ok of float  (** Latency in seconds, from the due time. *)
  | Shed
  | Error
  | Wrong
  | Unanswered

(* Verified ok replies inside [limit] seconds, per second of
   [duration]. Shed, failed, wrong, unanswered and late requests all
   count as misses. *)
let goodput ~limit ~duration fates =
  if duration <= 0.0 then invalid_arg "Stats.goodput: duration <= 0";
  let good =
    Array.fold_left
      (fun acc fate ->
        match fate with Ok l when l <= limit -> acc + 1 | _ -> acc)
      0 fates
  in
  float_of_int good /. duration

type counts = {
  sent : int;
  ok : int;
  shed : int;
  error : int;
  wrong : int;
  unanswered : int;
}

let counts fates =
  let count p = Array.fold_left (fun n f -> if p f then n + 1 else n) 0 fates in
  {
    sent = Array.length fates;
    ok = count (function Ok _ -> true | _ -> false);
    shed = count (( = ) Shed);
    error = count (( = ) Error);
    wrong = count (( = ) Wrong);
    unanswered = count (( = ) Unanswered);
  }

(* Open-loop schedule: request [i] is due [i / rate] seconds after the
   phase starts. *)
let due_times ~rate ~count ~offset =
  Array.init count (fun i -> offset +. (float_of_int i /. rate))

(* How late the generator sent each request, against its due time. A
   request sent early (never, by construction) counts as on time. *)
let lags ~due ~sent =
  if Array.length due <> Array.length sent then
    invalid_arg "Stats.lags: length mismatch";
  Array.mapi (fun i d -> Float.max 0.0 (sent.(i) -. d)) due
