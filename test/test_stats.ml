(** Unit tests for the percentile/histogram additions to
    [Sim_stats.Stats] (backing the tracer's latency tables). *)

module Stats = Sim_stats.Stats

let feq = Alcotest.(check (float 1e-9))

let test_percentile_empty () =
  Alcotest.(check bool)
    "empty sample is nan" true
    (Float.is_nan (Stats.percentile [] 50.0))

let test_percentile_singleton () =
  feq "p0 of singleton" 42.0 (Stats.percentile [ 42.0 ] 0.0);
  feq "p50 of singleton" 42.0 (Stats.percentile [ 42.0 ] 50.0);
  feq "p100 of singleton" 42.0 (Stats.percentile [ 42.0 ] 100.0)

let test_percentile_interpolated () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  feq "p0 is min" 10.0 (Stats.percentile xs 0.0);
  feq "p100 is max" 40.0 (Stats.percentile xs 100.0);
  (* rank of p50 over 4 samples is 1.5: midway between 20 and 30 *)
  feq "p50 interpolates" 25.0 (Stats.percentile xs 50.0);
  (* rank of p25 is 0.75: three quarters of the way from 10 to 20 *)
  feq "p25 interpolates" 17.5 (Stats.percentile xs 25.0);
  feq "input order is irrelevant" 25.0
    (Stats.percentile [ 40.0; 10.0; 30.0; 20.0 ] 50.0);
  feq "p clamps high" 40.0 (Stats.percentile xs 150.0);
  feq "p clamps low" 10.0 (Stats.percentile xs (-5.0))

let test_percentile_nonfinite () =
  (* Non-finite samples are measurement failures: dropped, not ranked. *)
  feq "nan samples dropped" 25.0
    (Stats.percentile [ nan; 10.0; 20.0; 30.0; 40.0; nan ] 50.0);
  feq "infinities dropped" 25.0
    (Stats.percentile [ infinity; 10.0; 20.0; 30.0; 40.0; neg_infinity ] 50.0);
  Alcotest.(check bool)
    "all-nan sample is nan" true
    (Float.is_nan (Stats.percentile [ nan; nan ] 50.0));
  (* a single survivor behaves like a singleton *)
  feq "one finite survivor" 7.0 (Stats.percentile [ nan; 7.0 ] 99.0);
  (* a non-finite p must not crash; it reads as the median *)
  feq "nan p is median" 25.0
    (Stats.percentile [ 10.0; 20.0; 30.0; 40.0 ] nan)

let test_histogram_empty () =
  Alcotest.(check int) "no buckets" 0 (Array.length (Stats.histogram []))

let test_histogram_singleton () =
  let h = Stats.histogram ~bins:3 [ 9.0 ] in
  Alcotest.(check int) "bucket count" 3 (Array.length h);
  let lo, hi, c0 = h.(0) in
  Alcotest.(check int) "sole sample in first bucket" 1 c0;
  feq "first bucket starts at the sample" 9.0 lo;
  feq "unit width under zero range" 10.0 hi

let test_histogram_nonfinite () =
  (* A NaN would make the min/max range NaN and every index undefined;
     non-finite samples are dropped instead. *)
  let h = Stats.histogram ~bins:2 [ nan; 1.0; 2.0; infinity ] in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "only finite samples counted" 2 total;
  Alcotest.(check int) "all-nonfinite yields no buckets" 0
    (Array.length (Stats.histogram [ nan; infinity ]))

let test_histogram_constant () =
  let h = Stats.histogram ~bins:4 [ 5.0; 5.0; 5.0 ] in
  Alcotest.(check int) "bucket count" 4 (Array.length h);
  let _, _, c0 = h.(0) in
  Alcotest.(check int) "all in first bucket" 3 c0;
  Array.iteri
    (fun i (_, _, c) ->
      if i > 0 then Alcotest.(check int) "other buckets empty" 0 c)
    h

let test_histogram_uniform () =
  let xs = List.init 10 (fun i -> float_of_int i) in
  let h = Stats.histogram ~bins:10 xs in
  Alcotest.(check int) "bucket count" 10 (Array.length h);
  Array.iter (fun (_, _, c) -> Alcotest.(check int) "one per bucket" 1 c) h;
  let lo, _, _ = h.(0) and _, hi, _ = h.(9) in
  feq "span starts at min" 0.0 lo;
  feq "span ends at max" 9.0 hi;
  (* total count is preserved *)
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "total preserved" 10 total

(* --- log-bucketed histogram (Log_hist) ----------------------------- *)

module H = Stats.Log_hist

let test_log_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check bool) "percentile is nan" true
    (Float.is_nan (H.percentile h 50.0));
  Alcotest.(check bool) "max is nan" true (Float.is_nan (H.max_value h));
  Alcotest.(check int) "no buckets" 0 (Array.length (H.buckets h))

let test_log_hist_bucket_bounds () =
  (* Buckets are octaves split into [sub] linear slices: every sample
     must land inside its bucket's [lo, hi) bounds, and each bucket's
     relative width is at most 1/sub. *)
  let sub = 8 in
  let h = H.create ~sub () in
  let samples = [ 1.0; 1.9; 2.0; 3.5; 100.0; 1024.0; 1_000_000.0 ] in
  List.iter (H.add h) samples;
  let buckets = H.buckets h in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets in
  Alcotest.(check int) "every sample bucketed" (List.length samples) total;
  Array.iter
    (fun (lo, hi, _) ->
      Alcotest.(check bool) "bounds ordered" true (lo < hi);
      Alcotest.(check bool)
        (Printf.sprintf "bucket [%g,%g) relative width <= 1/sub" lo hi)
        true
        (hi -. lo <= (lo /. float_of_int sub) +. 1e-9))
    buckets;
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "sample %g inside some bucket" v)
        true
        (Array.exists (fun (lo, hi, _) -> v >= lo && v < hi) buckets))
    samples;
  (* exact extremes survive bucketing; the percentile estimates sit
     mid-bucket, so they are only bucket-accurate (1/sub relative) *)
  feq "min exact" 1.0 (H.min_value h);
  feq "max exact" 1_000_000.0 (H.max_value h);
  let close name expected got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g within 1/sub of %g" name got expected)
      true
      (Float.abs (got -. expected) /. expected <= 1.0 /. float_of_int sub)
  in
  close "p0 tracks min" 1.0 (H.percentile h 0.0);
  close "p100 tracks max" 1_000_000.0 (H.percentile h 100.0)

let test_log_hist_underflow () =
  let h = H.create () in
  List.iter (H.add h) [ 0.0; 0.5; 4.0 ];
  Alcotest.(check int) "all counted" 3 (H.count h);
  match H.buckets h with
  | [||] -> Alcotest.fail "no buckets"
  | b ->
      let lo, hi, c = b.(0) in
      feq "underflow bucket starts at 0" 0.0 lo;
      feq "underflow bucket ends at 1" 1.0 hi;
      Alcotest.(check int) "sub-1 samples pooled" 2 c

let test_log_hist_nonfinite () =
  let h = H.create () in
  List.iter (H.add h) [ nan; infinity; neg_infinity; -3.0; 7.0 ];
  Alcotest.(check int) "only the finite non-negative sample counted" 1
    (H.count h);
  Alcotest.(check int) "four drops recorded" 4 (H.dropped h);
  feq "books unpolluted" 7.0 (H.percentile h 50.0)

(* A deterministic heavy-tailed sample (no Random: the suite must be
   reproducible): exponentially spaced values hit many octaves. *)
let heavy_tail n = List.init n (fun i -> Float.pow 1.013 (float_of_int i))

let test_log_hist_tail_accuracy () =
  let sub = 64 in
  let xs = heavy_tail 2000 in
  let h = H.create ~sub () in
  List.iter (H.add h) xs;
  List.iter
    (fun p ->
      let exact = Stats.percentile xs p in
      let est = H.percentile h p in
      let rel = Float.abs (est -. exact) /. exact in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within 1/sub: est %.1f exact %.1f (%.4f rel)" p
           est exact rel)
        true
        (rel <= 1.0 /. float_of_int sub))
    [ 50.0; 90.0; 99.0; 99.9 ]

let test_log_hist_merge () =
  let sub = 32 in
  let xs = heavy_tail 500 in
  let whole = H.create ~sub () in
  List.iter (H.add whole) xs;
  let a = H.create ~sub () and b = H.create ~sub () in
  List.iteri (fun i v -> H.add (if i mod 2 = 0 then a else b) v) xs;
  H.merge ~into:a b;
  Alcotest.(check int) "count merges" (H.count whole) (H.count a);
  feq "sum merges" (H.sum whole) (H.sum a);
  feq "max merges" (H.max_value whole) (H.max_value a);
  feq "p90 identical to unsplit" (H.percentile whole 90.0)
    (H.percentile a 90.0);
  match H.merge ~into:a (H.create ~sub:7 ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "merged histograms with different sub"

let test_log_hist_merge_disjoint () =
  (* The two inputs occupy disjoint octaves (no shared bucket), so the
     merge must graft whole octaves rather than just summing slices. *)
  let sub = 16 in
  let lows = [ 1.0; 1.5; 2.0; 3.0 ] and highs = [ 1.0e6; 1.5e6; 3.0e6 ] in
  let a = H.create ~sub () and b = H.create ~sub () in
  List.iter (H.add a) lows;
  List.iter (H.add b) highs;
  H.merge ~into:a b;
  let whole = H.create ~sub () in
  List.iter (H.add whole) (lows @ highs);
  Alcotest.(check int) "count" (H.count whole) (H.count a);
  feq "sum" (H.sum whole) (H.sum a);
  feq "min" (H.min_value whole) (H.min_value a);
  feq "max" (H.max_value whole) (H.max_value a);
  List.iter
    (fun p ->
      feq
        (Printf.sprintf "p%g identical to unsplit" p)
        (H.percentile whole p) (H.percentile a p))
    [ 0.0; 50.0; 90.0; 100.0 ];
  (* the gap between the octave groups holds no buckets: every bucket
     must contain at least one sample *)
  Array.iter
    (fun (lo, hi, c) ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket [%g,%g) non-empty" lo hi)
        true (c > 0))
    (H.buckets a)

let test_log_hist_percentile_edges () =
  (* empty: every percentile is nan, not an exception *)
  let e = H.create () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "empty p%g is nan" p)
        true
        (Float.is_nan (H.percentile e p)))
    [ 0.0; 50.0; 100.0 ];
  (* single sample: all percentiles collapse onto its bucket *)
  let sub = 16 in
  let h = H.create ~sub () in
  H.add h 42.0;
  feq "min exact" 42.0 (H.min_value h);
  feq "max exact" 42.0 (H.max_value h);
  feq "p0 = p100 for one sample" (H.percentile h 0.0) (H.percentile h 100.0);
  List.iter
    (fun p ->
      let est = H.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within 1/sub of the sample (got %g)" p est)
        true
        (Float.abs (est -. 42.0) /. 42.0 <= 1.0 /. float_of_int sub))
    [ 0.0; 50.0; 99.9; 100.0 ]

let prop_log_hist_relative_error =
  (* The structural guarantee behind the tracer's latency tables: the
     percentile estimate lands in the same bucket as the sample whose
     sorted index the rank maps to, so it is within 1/sub relative
     error of that sample.  (Against the *interpolated* exact
     percentile no such bound exists: two neighbouring samples may be
     octaves apart.) *)
  QCheck.Test.make ~count:100
    ~name:"log-hist percentile relative error <= 1/sub"
    (QCheck.make
       ~print:(fun (sub, xs, p) ->
         Printf.sprintf "sub=%d n=%d p=%g" sub (List.length xs) p)
       QCheck.Gen.(
         triple
           (int_range 4 64)
           (list_size (int_range 1 200) (float_range 1.0 1.0e9))
           (float_range 0.0 100.0)))
    (fun (sub, xs, p) ->
      let h = H.create ~sub () in
      List.iter (H.add h) xs;
      let n = List.length xs in
      let sorted = List.sort compare xs in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let sample = List.nth sorted (int_of_float (Float.floor rank)) in
      let est = H.percentile h p in
      Float.abs (est -. sample) /. sample
      <= (1.0 /. float_of_int sub) +. 1e-6)

(* A rank in the last half-sample of a bucket that is not the top one
   (so the final clamp to the observed max cannot hide an overshoot):
   two samples in [1, 1.25) at sub = 4, one far above.  p95 maps to
   rank 1.9, inside the low bucket; the estimate must stay within that
   bucket's bounds. *)
let test_log_hist_last_half_sample () =
  let h = H.create ~sub:4 () in
  List.iter (H.add h) [ 1.0; 1.0; 100.0 ];
  let est = H.percentile h 95.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p95 %g inside [1, 1.25]" est)
    true
    (est >= 1.0 && est <= 1.25)

(* --- streaming sketch (full float range) --------------------------- *)

let test_sketch_mixed_signs () =
  let xs = [ -8.0; -2.0; -1.0; 0.0; 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let s = Stats.Sketch.of_list xs in
  Alcotest.(check int) "count" 9 (Stats.Sketch.count s);
  feq "min is most negative" (-8.0) (Stats.Sketch.min_value s);
  feq "max" 16.0 (Stats.Sketch.max_value s);
  feq "sum" 20.0 (Stats.Sketch.sum s);
  (* splice point: p0 must read from the negative half, p100 from the
     positive, each bucket-accurate (default sub = 16) *)
  let close name expected got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g near %g" name got expected)
      true
      (Float.abs (got -. expected) /. Float.abs expected <= 1.0 /. 16.0)
  in
  close "p0" (-8.0) (Stats.Sketch.percentile s 0.0);
  close "p100" 16.0 (Stats.Sketch.percentile s 100.0);
  (* exact median is the 0.0 sample; the splice + bucket estimate may
     drift into the adjacent bucket but not past the neighbours *)
  let med = Stats.Sketch.percentile s 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "median between the neighbour samples (%g)" med)
    true
    (med >= -1.0 && med <= 2.0);
  let p25 = Stats.Sketch.percentile s 25.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p25 negative (%g)" p25)
    true (p25 < 0.0)

let test_sketch_all_negative () =
  let s = Stats.Sketch.of_list [ -10.0; -20.0; -40.0 ] in
  feq "min" (-40.0) (Stats.Sketch.min_value s);
  feq "max" (-10.0) (Stats.Sketch.max_value s);
  let close name expected got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g near %g" name got expected)
      true
      (Float.abs (got -. expected) /. Float.abs expected <= 1.0 /. 16.0)
  in
  close "p0 tracks min" (-40.0) (Stats.Sketch.percentile s 0.0);
  close "p100 tracks max" (-10.0) (Stats.Sketch.percentile s 100.0);
  let med = Stats.Sketch.percentile s 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "median in the middle bucket (%g)" med)
    true
    (med <= -10.0 && med >= -40.0);
  Alcotest.(check bool) "nan dropped, counted" true
    (Stats.Sketch.add s nan;
     Stats.Sketch.dropped s = 1 && Stats.Sketch.count s = 3)

let tests =
  [
    Alcotest.test_case "percentile: empty" `Quick test_percentile_empty;
    Alcotest.test_case "percentile: singleton" `Quick test_percentile_singleton;
    Alcotest.test_case "percentile: interpolation" `Quick
      test_percentile_interpolated;
    Alcotest.test_case "percentile: non-finite inputs" `Quick
      test_percentile_nonfinite;
    Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram: singleton" `Quick test_histogram_singleton;
    Alcotest.test_case "histogram: non-finite inputs" `Quick
      test_histogram_nonfinite;
    Alcotest.test_case "histogram: constant sample" `Quick
      test_histogram_constant;
    Alcotest.test_case "histogram: uniform sample" `Quick
      test_histogram_uniform;
    Alcotest.test_case "log-hist: empty" `Quick test_log_hist_empty;
    Alcotest.test_case "log-hist: bucket bounds" `Quick
      test_log_hist_bucket_bounds;
    Alcotest.test_case "log-hist: underflow bucket" `Quick
      test_log_hist_underflow;
    Alcotest.test_case "log-hist: non-finite inputs" `Quick
      test_log_hist_nonfinite;
    Alcotest.test_case "log-hist: tail accuracy vs exact" `Quick
      test_log_hist_tail_accuracy;
    Alcotest.test_case "log-hist: merge" `Quick test_log_hist_merge;
    Alcotest.test_case "log-hist: merge disjoint octaves" `Quick
      test_log_hist_merge_disjoint;
    Alcotest.test_case "log-hist: percentile edge cases" `Quick
      test_log_hist_percentile_edges;
    QCheck_alcotest.to_alcotest prop_log_hist_relative_error;
    Alcotest.test_case "sketch: mixed signs" `Quick test_sketch_mixed_signs;
    Alcotest.test_case "sketch: all negative" `Quick test_sketch_all_negative;
    Alcotest.test_case "log-hist: last half-sample stays in its bucket" `Quick
      test_log_hist_last_half_sample;
  ]
