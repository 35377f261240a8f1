(** A typed counter/gauge/histogram registry.

    The simulated kernel hangs one of these off {!Sim_kernel.Types}
    (like the [Tracer] handle): wiring sites increment plain [int
    ref]s, so the enabled path costs one load/store per event and the
    disabled path ([None] on the kernel) costs a single match.
    Nothing here ever charges simulated cycles — metrics are
    observation-only by construction, the same contract as the event
    tracer.

    Four metric kinds:

    - {b Counter} — monotonically increasing [int ref], bumped at the
      instrumentation site.
    - {b Gauge} — settable [int ref] for point-in-time levels.
    - {b Probe} — a [unit -> int] thunk sampled at scrape time; used
      to promote pre-existing process-wide counters (the decoded
      icache's [g_hits]/[g_misses]) and derived values (runqueue
      depth) into the registry without touching their hot paths.
    - {b Histogram} — power-of-two buckets with sum and count,
      Prometheus-compatible cumulative export.

    Exports: Prometheus text exposition ({!prometheus}) and JSON
    ({!to_json}).  Both are deterministic: metrics are sorted by
    (name, labels), so two identical runs scrape identically. *)

module Json = Sim_artifact.Json

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  h_buckets : int array;
      (** bucket [i] counts observations [v] with [v <= 2^i]; the last
          bucket is the +Inf catch-all *)
}

(* 2^39 cycles upper bucket: beyond any simulated run we do. *)
let hist_bins = 40

type value =
  | Counter of int ref
  | Gauge of int ref
  | Probe of (unit -> int)
  | Histogram of hist

type metric = {
  m_name : string;
  m_help : string;
  m_labels : (string * string) list;
  m_value : value;
}

type t = { tbl : (string * (string * string) list, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

(* Registration is idempotent: asking for an existing (name, labels)
   pair returns the existing cell, so wiring code can re-register
   freely (e.g. re-attaching one registry to a fresh kernel). *)
let register t ~help ~labels name mk =
  let key = (name, List.sort compare labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> m.m_value
  | None ->
      let v = mk () in
      Hashtbl.replace t.tbl key
        { m_name = name; m_help = help; m_labels = snd key; m_value = v };
      v

let counter t ?(help = "") ?(labels = []) name : int ref =
  match register t ~help ~labels name (fun () -> Counter (ref 0)) with
  | Counter r -> r
  | _ -> invalid_arg ("metric registered with another type: " ^ name)

let gauge t ?(help = "") ?(labels = []) name : int ref =
  match register t ~help ~labels name (fun () -> Gauge (ref 0)) with
  | Gauge r -> r
  | _ -> invalid_arg ("metric registered with another type: " ^ name)

(* A probe re-registration replaces the thunk: the closure captures a
   kernel, and attaching the registry to a new kernel must not keep
   scraping the old one. *)
let probe t ?(help = "") ?(labels = []) name (f : unit -> int) =
  let key = (name, List.sort compare labels) in
  Hashtbl.replace t.tbl key
    { m_name = name; m_help = help; m_labels = snd key; m_value = Probe f }

let histogram t ?(help = "") ?(labels = []) name : hist =
  let mk () =
    Histogram { h_count = 0; h_sum = 0; h_buckets = Array.make hist_bins 0 }
  in
  match register t ~help ~labels name mk with
  | Histogram h -> h
  | _ -> invalid_arg ("metric registered with another type: " ^ name)

(* Bucket index: smallest i with v <= 2^i (v <= 1 lands in bucket 0);
   values beyond the last power of two land in the +Inf bucket. *)
let bucket_of v =
  let v = max 0 v in
  let rec go i bound =
    if i >= hist_bins - 1 then hist_bins - 1
    else if v <= bound then i
    else go (i + 1) (bound * 2)
  in
  go 0 1

let observe (h : hist) v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + max 0 v;
  let i = bucket_of v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

(** Current scalar value of a metric ([None] for histograms). *)
let value_of = function
  | Counter r | Gauge r -> Some !r
  | Probe f -> Some (f ())
  | Histogram _ -> None

(** Look up the current value of (name, labels). *)
let find t ?(labels = []) name : int option =
  match Hashtbl.find_opt t.tbl (name, List.sort compare labels) with
  | None -> None
  | Some m -> value_of m.m_value

let sorted_metrics t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
  |> List.sort (fun a b ->
         match compare a.m_name b.m_name with
         | 0 -> compare a.m_labels b.m_labels
         | c -> c)

let label_str labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) labels)
    ^ "}"

let type_name = function
  | Counter _ -> "counter"
  | Gauge _ | Probe _ -> "gauge"
  | Histogram _ -> "histogram"

(** Prometheus text exposition (version 0.0.4). *)
let prometheus t =
  let b = Buffer.create 1024 in
  let last_header = ref "" in
  List.iter
    (fun m ->
      if m.m_name <> !last_header then begin
        last_header := m.m_name;
        if m.m_help <> "" then
          Buffer.add_string b
            (Printf.sprintf "# HELP %s %s\n" m.m_name m.m_help);
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" m.m_name (type_name m.m_value))
      end;
      match m.m_value with
      | Counter _ | Gauge _ | Probe _ ->
          let v = match value_of m.m_value with Some v -> v | None -> 0 in
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" m.m_name (label_str m.m_labels) v)
      | Histogram h ->
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              let le =
                if i = hist_bins - 1 then "+Inf"
                else string_of_int (1 lsl i)
              in
              (* Elide empty interior buckets to keep the exposition
                 readable; always emit the +Inf catch-all. *)
              if c > 0 || i = hist_bins - 1 then
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" m.m_name
                     (label_str (m.m_labels @ [ ("le", le) ]))
                     !cum))
            h.h_buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %d\n" m.m_name (label_str m.m_labels)
               h.h_sum);
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" m.m_name (label_str m.m_labels)
               h.h_count))
    (sorted_metrics t);
  Buffer.contents b

(** JSON export: [{"name":..,"type":..,"labels":{..},"value":..}]
    (histograms carry "count", "sum" and a "buckets" array of
    [le, cumulative_count] pairs instead of "value"). *)
let json t : Json.t =
  let metric m =
    let value =
      match m.m_value with
      | Counter _ | Gauge _ | Probe _ ->
          let v = match value_of m.m_value with Some v -> v | None -> 0 in
          [ ("value", Json.Int v) ]
      | Histogram h ->
          let cum = ref 0 and buckets = ref [] in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              if c > 0 || i = hist_bins - 1 then
                let le =
                  if i = hist_bins - 1 then Json.String "+Inf"
                  else Json.Int (1 lsl i)
                in
                buckets := Json.List [ le; Json.Int !cum ] :: !buckets)
            h.h_buckets;
          [
            ("count", Json.Int h.h_count); ("sum", Json.Int h.h_sum);
            ("buckets", Json.List (List.rev !buckets));
          ]
    in
    Json.Object
      ([
         ("name", Json.String m.m_name);
         ("type", Json.String (type_name m.m_value));
         ( "labels",
           Json.Object (List.map (fun (k, v) -> (k, Json.String v)) m.m_labels)
         );
       ]
      @ value)
  in
  Json.List (List.map metric (sorted_metrics t))

let to_json t = Json.to_string (json t)
