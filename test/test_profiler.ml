(** The cycle-clock sampling profiler: symbolization, deterministic
    sampling, well-formed collapsed-stack output, and context
    classification of interposed runs. *)

module Profiler = Sim_metrics.Profiler
module Micro = Workloads.Microbench_prog

let contains ~needle hay =
  let nl = String.length needle and l = String.length hay in
  let rec go i = i + nl <= l && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- symbolization ------------------------------------------------- *)

let test_symbolize () =
  let p = Profiler.create () in
  Alcotest.(check string) "no symbols: hex" "0x400010"
    (Profiler.symbolize p 0x400010);
  Profiler.add_symbols p [ ("start", 0x400000); ("loop", 0x400020) ];
  Alcotest.(check string) "exact hit" "start" (Profiler.symbolize p 0x400000);
  Alcotest.(check string) "offset inside" "start+0x8"
    (Profiler.symbolize p 0x400008);
  Alcotest.(check string) "next symbol wins" "loop"
    (Profiler.symbolize p 0x400020);
  Alcotest.(check string) "below first symbol: hex" "0x3fffff"
    (Profiler.symbolize p 0x3fffff);
  Alcotest.(check string) "beyond 4 KiB window: hex" "0x402000"
    (Profiler.symbolize p 0x402000);
  (* incremental addition keeps the array sorted *)
  Profiler.add_symbols p [ ("mid", 0x400010) ];
  Alcotest.(check string) "inserted symbol found" "mid+0x1"
    (Profiler.symbolize p 0x400011)

let test_tick_period () =
  let p = Profiler.create ~period:100 () in
  Profiler.tick p 99 ~comm:"a" ~rip:0 ~in_kernel:false ~sig_depth:0;
  Alcotest.(check int) "no sample before period" 0 (Profiler.samples p);
  Profiler.tick p 1 ~comm:"a" ~rip:0 ~in_kernel:false ~sig_depth:0;
  Alcotest.(check int) "sample at period" 1 (Profiler.samples p);
  (* one huge charge yields multiple samples: the cost model says the
     instruction occupied all those cycles *)
  Profiler.tick p 350 ~comm:"a" ~rip:0 ~in_kernel:false ~sig_depth:0;
  Alcotest.(check int) "large charge multi-samples" 4 (Profiler.samples p)

let test_context_priority () =
  let p = Profiler.create ~period:1 () in
  Profiler.add_region p ~lo:0x1000 ~hi:0x2000 ~name:"interposer";
  Profiler.tick p 1 ~comm:"c" ~rip:0x1500 ~in_kernel:true ~sig_depth:1;
  Profiler.tick p 1 ~comm:"c" ~rip:0x1500 ~in_kernel:false ~sig_depth:1;
  Profiler.tick p 1 ~comm:"c" ~rip:0x9000 ~in_kernel:false ~sig_depth:1;
  Profiler.tick p 1 ~comm:"c" ~rip:0x9000 ~in_kernel:false ~sig_depth:0;
  let f = Profiler.folded p in
  Alcotest.(check bool) "kernel beats region" true
    (contains ~needle:"c;kernel;0x1500 1" f);
  Alcotest.(check bool) "region beats signal" true
    (contains ~needle:"c;interposer;0x1500 1" f);
  Alcotest.(check bool) "signal beats guest" true
    (contains ~needle:"c;signal;0x9000 1" f);
  Alcotest.(check bool) "guest fallback" true
    (contains ~needle:"c;guest;0x9000 1" f)

(* --- end-to-end on the microbenchmark ------------------------------ *)

let profiled_run config =
  let p = Profiler.create ~period:101 () in
  List.iter
    (fun (lo, hi, name) -> Profiler.add_region p ~lo ~hi ~name)
    Lazypoline.Layout.interposer_windows;
  ignore
    (Micro.run ~iters:500
       ~observers:[ Sim_kernel.Observers.profiler p ]
       config);
  p

let test_samples_collected () =
  let p = profiled_run Micro.Lazypoline_noxstate in
  Alcotest.(check bool) "samples collected" true (Profiler.samples p > 0);
  Alcotest.(check bool) "distinct stacks" true (Profiler.stacks p > 1);
  let f = Profiler.folded p in
  Alcotest.(check bool) "kernel context present" true (contains ~needle:";kernel;" f);
  (* the microbench loop body is symbolized against the image labels *)
  Alcotest.(check bool) "loop symbol appears" true (contains ~needle:";loop" f)

let test_folded_well_formed () =
  let p = profiled_run Micro.Lazypoline_full in
  let f = Profiler.folded p in
  let lines = String.split_on_char '\n' f |> List.filter (( <> ) "") in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  let total =
    List.fold_left
      (fun acc line ->
        (* "comm;ctx;sym count": exactly two ';' and a positive count *)
        let semis =
          String.fold_left (fun n c -> if c = ';' then n + 1 else n) 0 line
        in
        Alcotest.(check int) ("two semicolons: " ^ line) 2 semis;
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no count in %S" line
        | Some i -> (
            let count =
              String.sub line (i + 1) (String.length line - i - 1)
            in
            match int_of_string_opt count with
            | Some n when n > 0 -> acc + n
            | _ -> Alcotest.failf "bad count in %S" line))
      0 lines
  in
  Alcotest.(check int) "counts sum to total samples" (Profiler.samples p) total

let test_deterministic () =
  let f1 = Profiler.folded (profiled_run Micro.Lazypoline_full) in
  let f2 = Profiler.folded (profiled_run Micro.Lazypoline_full) in
  Alcotest.(check string) "identical runs, identical profiles" f1 f2

let test_top_ranked () =
  let p = profiled_run Micro.Native in
  match Profiler.top ~n:3 p with
  | [] -> Alcotest.fail "no top stacks"
  | (_, n0) :: rest ->
      List.iter
        (fun (_, n) ->
          Alcotest.(check bool) "descending counts" true (n <= n0))
        rest

let tests =
  [
    Alcotest.test_case "symbolization" `Quick test_symbolize;
    Alcotest.test_case "tick period accounting" `Quick test_tick_period;
    Alcotest.test_case "context priority" `Quick test_context_priority;
    Alcotest.test_case "microbench: samples collected" `Quick
      test_samples_collected;
    Alcotest.test_case "folded output well-formed" `Quick
      test_folded_well_formed;
    Alcotest.test_case "profiles are deterministic" `Quick test_deterministic;
    Alcotest.test_case "top stacks ranked" `Quick test_top_ranked;
  ]
