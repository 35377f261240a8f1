(** The observer interface's contract: observation is free.  The
    divergence auditor is the oracle — its log carries the application
    and mechanism streams, a state-hash checkpoint every 8 application
    syscalls and the final state hash — and every run attaches it
    first.  Adding any subset of the other observation-only
    subscribers (tracer, metrics, profiler, span recorder, provenance
    ledger) must leave that log, the global clock and the
    microbenchmark's cycles per iteration exactly as the auditor-only
    run has them, over every microbenchmark configuration and the six
    mechanisms on a compiled C program, with and without the JIT. *)

open Sim_kernel
module D = Harness.Divergence
module Mb = Workloads.Microbench_prog

let mb_configs =
  Mb.
    [
      Native; Native_sud_allow; Zpoline; Lazypoline_full; Lazypoline_noxstate;
      Lazypoline_nosud; Lazypoline_protected; Sud; Seccomp_user; Seccomp_bpf;
      Ptrace;
    ]

let prog_src iters =
  Printf.sprintf
    {|
long main() {
  long i = 0;
  long acc = 0;
  while (i < %d) {
    acc = acc + syscall(39);
    syscall(1, 1, "x", 1);
    i = i + 1;
  }
  return acc & 7;
}
|}
    iters

let names = [| "tracer"; "metrics"; "profiler"; "spans"; "ledger" |]

(* Fresh subscribers for the members of [mask] (bit i: [names.(i)]). *)
let observers mask =
  let make = function
    | 0 -> Observers.tracer (Sim_trace.Tracer.create ~ncpus:1 ())
    | 1 -> Observers.metrics (Kmetrics.create ())
    | 2 -> Observers.profiler (Sim_metrics.Profiler.create ~period:13 ())
    | 3 -> D.spans (Sim_obs.Obs.create ~ncpus:1 ())
    | _ -> Observers.ledger (Sim_obs.Provenance.create ())
  in
  List.filter_map
    (fun i -> if mask land (1 lsl i) <> 0 then Some (make i) else None)
    (List.init (Array.length names) Fun.id)

let show_mask mask =
  Array.to_list names
  |> List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
  |> String.concat "+"

(* Audit log (final hash included), global clock, cycles/iteration. *)
let mb_run ~iters config mask =
  let a = Sim_audit.Audit.create ~checkpoint_every:8 () in
  let final = ref (0L, 0L) in
  let cpi =
    Mb.run ~iters
      ~observers:(Observers.auditor a :: observers mask)
      ~on_done:(fun k _ ->
        final := (Kernel.audit_final_hash k a, Types.global_time k))
      config
  in
  let h, clock = !final in
  (D.log_string ~final_hash:h a, clock, cpi)

let prog_run ~iters ~jit mech mask =
  let a, k, _ =
    D.run_audited ~checkpoint_every:8 ~observers:(observers mask) mech
      (D.Prog { src = prog_src iters; jit })
  in
  (D.log_string ~final_hash:(Kernel.audit_final_hash k a) a,
   Types.global_time k, 0.0)

(* Every case runs each configuration three times: auditor alone, with
   the drawn subset, and with its complement — so every observer is
   checked against every configuration in every case. *)
let prop_observation_is_free =
  let full = (1 lsl Array.length names) - 1 in
  QCheck.Test.make ~count:3
    ~name:"observer subsets never change the audited run"
    (QCheck.make
       ~print:(fun (mask, iters) ->
         Printf.sprintf "subset=%s iters=%d" (show_mask mask) iters)
       QCheck.Gen.(pair (int_range 1 (full - 1)) (int_range 3 12)))
    (fun (mask, iters) ->
      let same name run =
        let oracle = run 0 in
        List.iter
          (fun m ->
            if run m <> oracle then
              QCheck.Test.fail_reportf "%s: %s perturbed the run" name
                (show_mask m))
          [ mask; full lxor mask ]
      in
      List.iter
        (fun c -> same (Mb.config_name c) (mb_run ~iters:(10 * iters) c))
        mb_configs;
      List.iter
        (fun jit ->
          List.iter
            (fun m ->
              same
                (Printf.sprintf "%s jit=%b" (D.mech_name m) jit)
                (prog_run ~iters ~jit m))
            D.all_mechs)
        [ false; true ];
      true)

let tests = [ QCheck_alcotest.to_alcotest prop_observation_is_free ]
