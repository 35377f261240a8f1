(** Memory-speed probe for normalizing host times.

    On a shared machine the simulator's host speed swings by up to 2x
    over seconds to minutes, and the swings come from the memory
    system, not the CPU clock: a compute-only loop slows by a few
    percent while the simulator slows by half.  This probe does a
    fixed amount of random read-modify-write over a 4 MiB buffer plus
    hash-table lookups, which tracks the simulator's speed closely (see
    README.md).  The benchmark runs it for about 0.15 ms every 5 ms of
    simulation and scales each timed call and slice by [ref_ns] / (the
    probe time measured around it).

    Its memory is timed as the simulator left it, not warmed first: a
    warmed probe followed the machine's contention much worse, and a
    deliberately memory-heavier simulator moved this one by only 1-3%
    (README.md, "Does the simulator's own footprint move the probe?").

    The probe lives off the OCaml heap and allocates nothing, so it
    changes neither [peak_heap_mb] nor [alloc_words_per_syscall]. *)

(** The probe's time on an idle run of the reference machine (a 2-vCPU
    Intel Xeon VM); normalized times read as host times on that
    machine when idle. *)
let ref_ns = 120_000.0

let mem =
  let open Bigarray in
  let a = Array1.create char c_layout (1 lsl 22) in
  Array1.fill a 'x';
  a

let mask = (1 lsl 22) - 1

let tbl =
  let h = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace h i (i * 3)
  done;
  h

let run () =
  let s = ref 1 in
  for i = 0 to 1_000 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s land mask in
    let v = Char.code (Bigarray.Array1.unsafe_get mem ((j * 7) land mask)) in
    Bigarray.Array1.unsafe_set mem j (Char.unsafe_chr ((v + i) land 255));
    s := !s + Hashtbl.find tbl (i land 4095)
  done;
  !s
