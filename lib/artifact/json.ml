(** JSON values and their printer: the one JSON writer of the
    toolchain.  The bench report, metric and call-site exports build a
    {!t} and print it here; the Chrome trace exporter streams its
    events itself but escapes strings with {!escape}.

    The printer lays a container out on one line when that line fits
    in {!width} columns or holds only scalars, and one member per line
    otherwise, so rows stay compact and large documents diffable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float  (** decimals printed, value; non-finite is null *)
  | String of string
  | List of t list
  | Object of (string * t) list

(** [s] as the body of a JSON string literal: quote, backslash and
    control characters escaped, everything else verbatim.  Most
    strings need no escaping and are returned as they are. *)
let escape s =
  if String.for_all (fun c -> c <> '"' && c <> '\\' && c >= ' ') s then s
  else begin
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let width = 80

(* [members] opens, separates and closes a container; [item] prints
   one member. *)
let members b ~opening ~closing ~sep item l =
  Buffer.add_string b opening;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b sep;
      item m)
    l;
  Buffer.add_string b closing

let add_key b k = Printf.bprintf b "\"%s\": " (escape k)

let rec add_flat b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float (_, x) when not (Float.is_finite x) -> Buffer.add_string b "null"
  | Float (d, x) -> Printf.bprintf b "%.*f" d x
  | String s -> Printf.bprintf b "\"%s\"" (escape s)
  | List [] -> Buffer.add_string b "[]"
  | Object [] -> Buffer.add_string b "{}"
  | List l -> members b ~opening:"[" ~closing:"]" ~sep:", " (add_flat b) l
  | Object kvs ->
      members b ~opening:"{ " ~closing:" }" ~sep:", "
        (fun (k, v) ->
          add_key b k;
          add_flat b v)
        kvs

let scalar = function List (_ :: _) | Object (_ :: _) -> false | _ -> true

(* A row of scalars stays on one line whatever its width. *)
let leaf = function
  | List l -> List.for_all scalar l
  | Object kvs -> List.for_all (fun (_, v) -> scalar v) kvs
  | _ -> true

(* [col] is the column [v] starts at, [ind] the indentation of the
   line it starts on. *)
let rec add_pretty b ~ind ~col v =
  let flat = Buffer.create 64 in
  add_flat flat v;
  let fits = col + Buffer.length flat <= width || leaf v in
  let inner = ind + 2 in
  let block opening closing item l =
    let nl n = "\n" ^ String.make n ' ' in
    members b ~opening:(opening ^ nl inner) ~closing:(nl ind ^ closing)
      ~sep:("," ^ nl inner) item l
  in
  match v with
  | List (_ :: _ as l) when not fits ->
      block "[" "]" (add_pretty b ~ind:inner ~col:inner) l
  | Object (_ :: _ as kvs) when not fits ->
      block "{" "}"
        (fun (k, v) ->
          let start = Buffer.length b in
          add_key b k;
          add_pretty b ~ind:inner ~col:(inner + Buffer.length b - start) v)
        kvs
  | _ -> Buffer.add_buffer b flat

(** Append [v] to [b], pretty-printed, without a trailing newline. *)
let to_buffer b v = add_pretty b ~ind:0 ~col:0 v

let to_string v =
  let b = Buffer.create 4096 in
  to_buffer b v;
  Buffer.contents b
