(** A wrk-style keepalive load generator.

    Modelled as an external actor on the simulated network stack
    rather than as simulated machine code: in the paper's setup the
    client runs on 36 dedicated cores (three times the server's 12)
    precisely so that it is never the bottleneck, and the client is
    never interposed.  Each connection keeps one request in flight:
    as soon as the response's last byte arrives, the next request
    goes out — maximum pressure, like wrk over keepalive
    connections.

    Every request carries a generator-assigned id: issue and
    completion cycle timestamps are recorded per request (the
    latency sample the tail tables are built from), and when the
    kernel has observers the issue, completion and abandonment are
    events on its stream ({!Types.Req_issue} and friends), so a span
    recorder can attribute the request's whole lifetime to causal
    phases. *)

open Sim_kernel

type conn = {
  ep : Net.endpoint;
  mutable to_recv : int;  (** bytes outstanding of the current response *)
  mutable in_flight : bool;
  mutable send_pos : int;  (** partial-request progress *)
  mutable rid : int;  (** request id in flight on this connection, or -1 *)
  mutable issued_at : int64;  (** cycle time the in-flight request fired *)
  mutable dead : bool;  (** server closed the connection *)
}

type t = {
  conns : conn list;
  request : string;
  response_size : int;  (** header + body, known a priori *)
  max_requests : int;  (** stop issuing after this many (0 = unbounded) *)
  mutable next_rid : int;
  mutable completed : int;
  mutable errors : int;
  mutable latencies : (int * int64 * int64) list;
      (** (rid, issue, complete) per finished request, newest first *)
}

(* The server-side endpoint id of a client connection — the key the
   kernel claims requests by (it sees the server half on its reads). *)
let conn_token (c : conn) =
  match c.ep.Net.peer with Some p -> p.Net.id | None -> c.ep.Net.id

(** Connect [conns] keepalive connections to [port] and register the
    generator as a kernel actor.  [file] is the path requested;
    [file_size] its size (the client knows what it asked for).
    [max_requests] bounds the total issued (0, the default, keeps
    firing as long as the simulation runs). *)
let attach ?(max_requests = 0) (k : Types.kernel) ~port ~conns ~file
    ~file_size : t =
  let request = Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" file in
  (* A refused connection (no listener yet, backlog full) is a load
     generator error like any other — count it and carry on with the
     connections that did come up, instead of aborting the whole
     simulation. *)
  let refused = ref 0 in
  let connected =
    List.filter_map
      (fun _ ->
        match Net.connect k.Types.net ~port with
        | Ok ep ->
            Some
              { ep; to_recv = 0; in_flight = false; send_pos = 0; rid = -1;
                issued_at = 0L; dead = false }
        | Error `Refused ->
            incr refused;
            None)
      (List.init conns Fun.id)
  in
  let g =
    {
      conns = connected;
      request;
      response_size = Webserver.header_len + file_size;
      max_requests;
      next_rid = 1;
      completed = 0;
      errors = !refused;
      latencies = [];
    }
  in
  let step () =
    let now = Types.global_time k in
    List.iter
      (fun c ->
        (* Drain whatever the server produced. *)
        let rec drain () =
          match Net.recv c.ep 65536 with
          | `Data s ->
              c.to_recv <- c.to_recv - String.length s;
              if c.to_recv > 0 then drain ()
          | `Eof ->
              if c.in_flight then begin
                g.errors <- g.errors + 1;
                if c.rid >= 0 && k.Types.observers <> [] then
                  Types.emit k (Types.Req_abandon c.rid)
              end;
              c.in_flight <- false;
              c.rid <- -1;
              c.dead <- true;
              c.to_recv <- 0
          | `Empty -> ()
        in
        if c.in_flight then drain ();
        if c.in_flight && c.to_recv <= 0 then begin
          g.completed <- g.completed + 1;
          g.latencies <- (c.rid, c.issued_at, now) :: g.latencies;
          if k.Types.observers <> [] then
            Types.emit k (Types.Req_complete { rid = c.rid; ts = now });
          c.in_flight <- false;
          c.rid <- -1;
          c.send_pos <- 0
        end;
        (* Fire the next request (unless the budget is spent). *)
        if
          (not c.in_flight) && (not c.dead)
          && c.ep.Net.peer <> None
          && (g.max_requests = 0 || g.next_rid <= g.max_requests)
        then begin
          if c.send_pos = 0 && c.rid < 0 then begin
            (* The request exists from its first byte on the wire:
               stamp the id and the issue time now, so queueing delay
               ahead of the server's first read is part of its
               latency. *)
            c.rid <- g.next_rid;
            g.next_rid <- g.next_rid + 1;
            c.issued_at <- now;
            if k.Types.observers <> [] then
              Types.emit k
                (Types.Req_issue { rid = c.rid; conn = conn_token c; ts = now })
          end;
          let remaining = String.length g.request - c.send_pos in
          match Net.send c.ep g.request c.send_pos remaining with
          | Ok sent ->
              c.send_pos <- c.send_pos + sent;
              if c.send_pos >= String.length g.request then begin
                c.in_flight <- true;
                c.to_recv <- g.response_size
              end
          | Error `Pipe ->
              g.errors <- g.errors + 1;
              if c.rid >= 0 && k.Types.observers <> [] then
                  Types.emit k (Types.Req_abandon c.rid);
              c.rid <- -1;
              c.dead <- true;
              c.send_pos <- 0
        end)
      g.conns;
    ()
  in
  k.Types.actors <- step :: k.Types.actors;
  g

(** Finished requests as (rid, issue, complete), completion order. *)
let latencies (g : t) = List.rev g.latencies

(** True once a bounded generator has collected every response. *)
let finished (g : t) =
  g.max_requests > 0 && g.completed >= g.max_requests

(** Requests per simulated second (cycles at 2.1 GHz). *)
let throughput (g : t) ~(cycles : int64) =
  Int64.to_float (Int64.of_int g.completed)
  /. (Int64.to_float cycles /. 2.1e9)
