(* Tests of the benchmark's own arithmetic. *)

open Benchkit

let close = Alcotest.float 1e-9

let test_percentile_refuses_thin_tail () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  (match Stats.percentile (samples 1000) 99.0 with
  | Ok v -> Alcotest.check close "p99 of 1..1000 by nearest rank" 990.0 v
  | Error e -> Alcotest.fail e);
  (match Stats.percentile (samples 999) 99.0 with
  | Ok v -> Alcotest.failf "999 samples leave 9 beyond p99, got %g" v
  | Error _ -> ());
  (match Stats.percentile (samples 20) 50.0 with
  | Ok v -> Alcotest.check close "median of 1..20" 10.0 v
  | Error e -> Alcotest.fail e);
  (match Stats.percentile [||] 50.0 with
  | Ok _ -> Alcotest.fail "empty sample has no percentile"
  | Error _ -> ());
  Alcotest.check close "median needs no tail" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |])

let test_goodput_counts_misses () =
  let fates =
    [|
      Stats.Ok 0.010;
      Stats.Ok 0.020;
      Stats.Ok 0.300 (* late: beyond the 0.1 s limit *);
      Stats.Shed;
      Stats.Error;
      Stats.Wrong;
      Stats.Unanswered;
      Stats.Ok 0.100 (* exactly at the limit counts *);
    |]
  in
  Alcotest.check close "3 good over 2 s" 1.5
    (Stats.goodput ~limit:0.1 ~duration:2.0 fates);
  let c = Stats.counts fates in
  Alcotest.(check (list int))
    "sent ok shed error wrong unanswered" [ 8; 4; 1; 1; 1; 1 ]
    [ c.sent; c.ok; c.shed; c.error; c.wrong; c.unanswered ]

let test_lag_from_schedule () =
  let due = Stats.due_times ~rate:50.0 ~count:4 ~offset:1.0 in
  Alcotest.(check (array close)) "due every 20 ms" [| 1.0; 1.02; 1.04; 1.06 |] due;
  let sent = [| 1.0; 1.05; 1.05; 1.059 |] in
  Alcotest.(check (array close))
    "lag against due, never negative" [| 0.0; 0.03; 0.01; 0.0 |]
    (Stats.lags ~due ~sent)

let test_chunks () =
  Alcotest.(check (list (list int)))
    "pieces of 2, in order, short last" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Stats.chunks 2 [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list (list int))) "empty" [] (Stats.chunks 32 []);
  Alcotest.(check (list (list int)))
    "exact multiple" [ [ 1; 2; 3 ] ] (Stats.chunks 3 [ 1; 2; 3 ])

let test_self_time_nested () =
  (* A fake clock that advances 1 s per read makes every duration
     exact: outer reads at 0 and 5, a at 1..2, b at 3..4. *)
  let t = ref (-1.0) in
  let rec_ =
    Span.create
      ~clock:(fun () ->
        t := !t +. 1.0;
        !t)
      ()
  in
  Span.with_span rec_ "outer" (fun () ->
      Span.with_span rec_ "a" ignore;
      Span.with_span rec_ "b" ignore);
  let spans = Span.spans rec_ in
  let self name =
    List.assoc name
      (List.map (fun ((s : Span.span), self) -> (s.name, self))
         (Span.self_times spans))
  in
  Alcotest.check close "outer inclusive" 5.0 (Span.durations spans "outer").(0);
  Alcotest.check close "outer self = 5 - 1 - 1" 3.0 (self "outer");
  Alcotest.check close "leaf self = inclusive" 1.0 (self "a");
  Alcotest.check close "overlapping children count once" 3.0
    (Span.covered ~lo:0.0 ~hi:10.0 [ (1.0, 3.0); (2.0, 4.0) ]);
  Alcotest.check close "children clipped to the parent" 0.5
    (Span.covered ~lo:0.0 ~hi:1.0 [ (0.5, 3.0) ])

let () =
  Alcotest.run "benchkit"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile refuses a thin tail" `Quick
            test_percentile_refuses_thin_tail;
          Alcotest.test_case "goodput counts shed and late as misses" `Quick
            test_goodput_counts_misses;
          Alcotest.test_case "lag from the schedule" `Quick
            test_lag_from_schedule;
          Alcotest.test_case "chunks" `Quick test_chunks;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time from nested spans" `Quick
            test_self_time_nested;
        ] );
    ]
