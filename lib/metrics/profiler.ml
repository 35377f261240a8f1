(** Sampling profiler driven by the simulated cycle clock.

    Every [period] simulated cycles (counted through the kernel's one
    clock-advance point, [Types.charge]) the profiler captures the
    current task's (comm, rip, dispatch context) and aggregates it
    into a collapsed-stack table.  Sampling is keyed to the simulated
    clock, not host time or randomness, so profiles are fully
    deterministic: the same program produces the same folded output
    every run.

    Context classification, in priority order:

    + ["kernel"] — the charge happened inside the simulated kernel
      (syscall dispatch, signal delivery, sigreturn);
    + a registered address region — e.g. the zpoline trampoline page
      or the interposer stub text, registered by the CLI before the
      run (the kernel itself stays ignorant of interposer layout);
    + ["signal"] — a signal frame is live (handler depth > 0);
    + ["guest"] — plain application execution.

    Leaf frames are symbolized against loader symbol tables
    ({!add_symbols}, fed from [Asm.blob] symbols through
    [Types.image]); unresolvable addresses fall back to hex.  Output
    is the flamegraph collapsed format, one ["comm;ctx;sym count"]
    line per distinct stack ({!folded}), consumable by flamegraph.pl
    or speedscope.

    Observation-only: ticking never charges cycles or touches guest
    state; a profiled run is cycle- and state-identical to an
    unprofiled one (asserted by the qcheck property in
    test_observers). *)

type t = {
  period : int;
  mutable credit : int;  (** cycles until the next sample fires *)
  mutable total : int;  (** samples captured *)
  mutable regions : (int * int * string) list;  (** lo, hi-exclusive, ctx *)
  mutable syms : (int * string) array;  (** sorted by address *)
  counts : (string, int) Hashtbl.t;  (** folded stack -> sample count *)
}

(* Default period: prime, so sampling does not phase-lock with loop
   bodies whose cycle counts are round numbers. *)
let create ?(period = 997) () =
  if period <= 0 then invalid_arg "Profiler.create: period must be positive";
  {
    period;
    credit = period;
    total = 0;
    regions = [];
    syms = [||];
    counts = Hashtbl.create 64;
  }

let add_region p ~lo ~hi ~name =
  p.regions <- (lo, hi, name) :: p.regions

let add_symbols p (syms : (string * int) list) =
  let all =
    Array.append p.syms (Array.of_list (List.map (fun (n, a) -> (a, n)) syms))
  in
  Array.sort compare all;
  p.syms <- all

(* Greatest symbol at or below [rip], if within 4 KiB (past that the
   address is likelier an unsymbolized island than a huge function). *)
let symbolize p rip =
  let n = Array.length p.syms in
  if n = 0 then Printf.sprintf "0x%x" rip
  else begin
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fst p.syms.(mid) <= rip then lo := mid else hi := mid
    done;
    let addr, name = p.syms.(!lo) in
    if rip >= addr && rip - addr < 4096 then
      if rip = addr then name else Printf.sprintf "%s+0x%x" name (rip - addr)
    else Printf.sprintf "0x%x" rip
  end

let region_of p rip =
  let rec go = function
    | [] -> None
    | (lo, hi, name) :: rest ->
        if rip >= lo && rip < hi then Some name else go rest
  in
  go p.regions

let sample p ~comm ~rip ~in_kernel ~sig_depth =
  let ctx =
    if in_kernel then "kernel"
    else
      match region_of p rip with
      | Some name -> name
      | None -> if sig_depth > 0 then "signal" else "guest"
  in
  let key = comm ^ ";" ^ ctx ^ ";" ^ symbolize p rip in
  p.total <- p.total + 1;
  Hashtbl.replace p.counts key
    (1 + Option.value ~default:0 (Hashtbl.find_opt p.counts key))

(** Advance the sampling clock by [n] cycles on behalf of the current
    task; captures a sample each time the period elapses.  A single
    charge larger than the period yields multiple samples attributed
    to the same instruction — the cost model says that instruction
    occupied those cycles. *)
let tick p n ~comm ~rip ~in_kernel ~sig_depth =
  p.credit <- p.credit - n;
  while p.credit <= 0 do
    sample p ~comm ~rip ~in_kernel ~sig_depth;
    p.credit <- p.credit + p.period
  done

let samples p = p.total

let stacks p = Hashtbl.length p.counts

(** Collapsed-stack output, one "frames count" line per distinct
    stack, sorted for determinism. *)
let folded p =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) p.counts []
  |> List.sort compare
  |> List.map (fun (k, c) -> Printf.sprintf "%s %d\n" k c)
  |> String.concat ""

(** Top [n] stacks by sample count, for one-shot summaries. *)
let top ?(n = 10) p =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) p.counts []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare b a with 0 -> compare ka kb | c -> c)
  |> List.filteri (fun i _ -> i < n)
