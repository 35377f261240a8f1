(** The machine-wide tracer handle: per-CPU bounded rings plus a
    global sequence counter.

    It subscribes to the kernel-event stream
    ([Sim_kernel.Observers.tracer]); with no observer attached every
    emit site costs one comparison and no allocation.  Emitting never
    charges simulated cycles and never
    mutates task, memory or CPU state — tracing is observation only,
    and the simulated machine is bit-identical with it on or off. *)

type t = {
  rings : Event.t Ring.t array;  (** one ring per simulated CPU *)
  mutable seq : int;  (** global emission order *)
}

let default_capacity = 1 lsl 16

(** [create ~ncpus ()] makes a tracer with one [capacity]-event ring
    per CPU (default {!default_capacity}). *)
let create ?(capacity = default_capacity) ~ncpus () =
  if ncpus <= 0 then invalid_arg "Tracer.create: non-positive ncpus";
  { rings = Array.init ncpus (fun _ -> Ring.create capacity); seq = 0 }

let ncpus t = Array.length t.rings

(** Record [kind] at simulated time [ts] on [cpu] for task [tid].
    Out-of-range CPU indices (external actors) land on ring 0. *)
let emit t ~cpu ~tid ~ts kind =
  let cpu = if cpu < 0 || cpu >= Array.length t.rings then 0 else cpu in
  let seq = t.seq in
  t.seq <- seq + 1;
  Ring.push t.rings.(cpu) { Event.ts; tid; cpu; seq; kind }

(** Events dropped across all rings (ring-full overflow). *)
let dropped t =
  Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 t.rings

(** Events dropped on one CPU's ring (0 for out-of-range CPUs), for
    the per-CPU drop probes in /proc/metrics. *)
let dropped_on t cpu =
  if cpu < 0 || cpu >= Array.length t.rings then 0
  else Ring.dropped t.rings.(cpu)

(** Events offered across all rings, including dropped ones. *)
let emitted t = Array.fold_left (fun acc r -> acc + Ring.pushed r) 0 t.rings

let retained t = Array.fold_left (fun acc r -> acc + Ring.length r) 0 t.rings

(** All retained events, merged across CPUs and ordered by
    (timestamp, emission order).  Some emit sites stamp an event with
    the time an operation {e started} but emit it after nested events
    (e.g. a syscall-enter emitted together with its exit), so the
    per-ring order alone is not the timeline order. *)
let events t : Event.t list =
  let all =
    Array.fold_left (fun acc r -> List.rev_append (Ring.to_list r) acc) [] t.rings
  in
  List.sort
    (fun (a : Event.t) (b : Event.t) ->
      match Int64.compare a.ts b.ts with 0 -> compare a.seq b.seq | c -> c)
    all

let clear t =
  Array.iter Ring.clear t.rings;
  t.seq <- 0
