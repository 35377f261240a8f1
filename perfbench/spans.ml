(** In-memory span recorder for the traced run.

    Spans are recorded from the benchmark's own code only: around the
    calls it makes into a layer ([Kernel.run_slice], [Kernel.spawn],
    interposer [install], minicc compile) and around the callbacks the
    kernel makes through its public slots (the hypercall table, ptrace
    monitors, actors), which the benchmark wraps from outside.

    Every span contributes to per-name totals (count, duration, self
    time = duration minus the part covered by child spans).  The first
    [cap] spans are also kept verbatim (name, start, end, parent, unit
    id) and written out as a Chrome trace when the run ends; later
    ones are only counted as dropped, so memory stays bounded. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let max_depth = 16

(** Spans kept verbatim; later ones are only counted. *)
let cap = 50_000

type t = {
  mutable names : string array;
  mutable count : int array;
  mutable total : int array;  (** ns *)
  mutable self : int array;  (** ns *)
  (* open-span stack *)
  st_name : int array;
  st_start : int array;
  st_child : int array;  (** ns covered by finished children *)
  st_ret : int array;  (** retained index, or -1 *)
  mutable depth : int;
  (* retained spans *)
  r_name : int array;
  r_start : int array;
  r_end : int array;
  r_parent : int array;
  r_unit : int array;
  mutable n_ret : int;
  mutable dropped : int;
  mutable unit_id : int;
  t0 : int;
}

let create () =
  let z () = Array.make max_depth 0 in
  {
    names = [||];
    count = [||];
    total = [||];
    self = [||];
    st_name = z ();
    st_start = z ();
    st_child = z ();
    st_ret = z ();
    depth = 0;
    r_name = Array.make cap 0;
    r_start = Array.make cap 0;
    r_end = Array.make cap 0;
    r_parent = Array.make cap 0;
    r_unit = Array.make cap 0;
    n_ret = 0;
    dropped = 0;
    unit_id = 0;
    t0 = now_ns ();
  }

(** The id of span name [name], registering it on first use. *)
let id t name =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| name |];
      t.count <- Array.append t.count [| 0 |];
      t.total <- Array.append t.total [| 0 |];
      t.self <- Array.append t.self [| 0 |];
      i
    end
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

(** Spans opened from here on share unit id [u] (one mechanism
    sub-run, program or server run). *)
let set_unit t u = t.unit_id <- u

let enter t nid =
  let d = t.depth in
  if d >= max_depth then failwith "Spans.enter: nesting too deep";
  let start = now_ns () in
  t.st_name.(d) <- nid;
  t.st_start.(d) <- start;
  t.st_child.(d) <- 0;
  (if t.n_ret < cap then begin
     let i = t.n_ret in
     t.n_ret <- i + 1;
     t.r_name.(i) <- nid;
     t.r_start.(i) <- start - t.t0;
     t.r_parent.(i) <- (if d = 0 then -1 else t.st_ret.(d - 1));
     t.r_unit.(i) <- t.unit_id;
     t.st_ret.(d) <- i
   end
   else begin
     t.dropped <- t.dropped + 1;
     t.st_ret.(d) <- -1
   end);
  t.depth <- d + 1

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let nid = t.st_name.(d) in
  let dur = stop - t.st_start.(d) in
  t.count.(nid) <- t.count.(nid) + 1;
  t.total.(nid) <- t.total.(nid) + dur;
  t.self.(nid) <- t.self.(nid) + (dur - t.st_child.(d));
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let ri = t.st_ret.(d) in
  if ri >= 0 then t.r_end.(ri) <- stop - t.t0

(** Run [f] inside a span named [nid]; the span closes on exceptions
    too (the kernel unwinds killed tasks with one). *)
let wrap t nid f =
  enter t nid;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

type stat = { name : string; calls : int; total_ns : int; self_ns : int }

let stats t =
  Array.to_list
    (Array.mapi
       (fun i name ->
         { name; calls = t.count.(i); total_ns = t.total.(i); self_ns = t.self.(i) })
       t.names)

let find_stat t name =
  List.find_opt (fun s -> s.name = name) (stats t)

let retained t = t.n_ret
let dropped t = t.dropped

(** Write the retained spans as a Chrome trace (load it in Perfetto or
    chrome://tracing); [parent] and [unit] ride in each event's
    [args]. *)
let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      for i = 0 to t.n_ret - 1 do
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"unit\":%d}}\n"
          (if i = 0 then "" else ",")
          t.names.(t.r_name.(i))
          (float_of_int t.r_start.(i) /. 1e3)
          (float_of_int (t.r_end.(i) - t.r_start.(i)) /. 1e3)
          i t.r_parent.(i) t.r_unit.(i)
      done;
      Printf.fprintf oc "],\"otherData\":{\"dropped_spans\":%d}}\n" t.dropped)
