(** Seeded generator of small minicc programs for the [sweep] workload.

    Each program mixes getpid, gettid, console writes, open-read-close
    of a data file, short syscall loops and calls to helpers that make
    syscalls of their own, folds every result into an accumulator, and
    prints the accumulator before exiting with it (mod 128).  So both
    the console output and the exit code depend on every syscall
    result, and any interposer that perturbs one shows up in the
    comparison with the native run.  Every [jit_every]-th program runs
    through the [Minicc.Jit] driver, whose syscall sites only exist
    once the JIT has published its code pages. *)

let jit_every = 4
let data_files = 4
let data_path i = Printf.sprintf "/data/f%d" i

(** The data files every sweep kernel serves, from the workload seed. *)
let files ~seed =
  let rng = Random.State.make [| seed; 0xf11e |] in
  List.init data_files (fun i ->
      let len = 16 + Random.State.int rng 96 in
      (data_path i, String.init len (fun _ -> Char.chr (32 + Random.State.int rng 95))))

let words = [| "alpha"; "bravo"; "delta"; "kilo"; "lima"; "oscar"; "tango" |]

let putnum =
  {|char nb[32];
long putnum(long v) {
  long i = 30;
  nb[31] = 10;
  if (v < 0) v = 0 - v;
  if (v == 0) { nb[i] = '0'; i = i - 1; }
  while (v > 0) { nb[i] = '0' + v % 10; v = v / 10; i = i - 1; }
  syscall(1, 1, nb + i + 1, 31 - i);
  return 0;
}
|}

(* One statement group of [main] (or a helper) that updates [acc];
   [n] keeps local names unique. *)
let snippet rng n =
  match Random.State.int rng 6 with
  | 0 -> "  acc = acc * 3 + syscall(39);\n"
  | 1 -> "  acc = acc + syscall(186) * 5;\n"
  | 2 ->
      let w = words.(Random.State.int rng (Array.length words)) in
      Printf.sprintf "  acc = acc + syscall(1, 1, \"%s\\n\", %d);\n" w
        (String.length w + 1)
  | 3 ->
      let f = data_path (Random.State.int rng data_files) in
      Printf.sprintf
        "  long fd%d = syscall(2, \"%s\", 0, 0);\n\
        \  if (fd%d >= 0) {\n\
        \    long n%d = syscall(0, fd%d, buf, 64);\n\
        \    acc = acc + n%d * 7 + buf[0];\n\
        \    syscall(3, fd%d);\n\
        \  } else { acc = acc + 1000; }\n"
        n f n n n n n
  | 4 ->
      Printf.sprintf
        "  long i%d = 0;\n\
        \  while (i%d < %d) { acc = acc + syscall(39) %% 7 + i%d; i%d = i%d + 1; }\n"
        n n (2 + Random.State.int rng 12) n n n
  | _ -> Printf.sprintf "  acc = h%d(acc);\n" (Random.State.int rng 2)

let helper rng i =
  Printf.sprintf
    "long h%d(long x) {\n\
    \  long acc = x + %d;\n\
     %s%s  return acc %% 1000003;\n\
     }\n"
    i (Random.State.int rng 100)
    (if Random.State.bool rng then "  acc = acc + syscall(39);\n"
     else "  acc = acc + syscall(186);\n")
    (Printf.sprintf "  syscall(1, 1, \"h%d\\n\", 3);\n" i)

(** Program [i] of the pool for [seed]: (source, runs through the JIT
    driver). *)
let program ~seed i =
  let rng = Random.State.make [| seed; i; 0x5eed |] in
  let helpers = helper rng 0 ^ helper rng 1 in
  let body =
    String.concat ""
      (List.init (4 + Random.State.int rng 8) (fun n -> snippet rng n))
  in
  let src =
    Printf.sprintf
      "%s\nchar buf[128];\n%s\nlong main() {\n  long acc = %d;\n%s  acc = acc %% 1000003;\n  putnum(acc);\n  return acc %% 128;\n}\n"
      putnum helpers (Random.State.int rng 1000) body
  in
  (src, i mod jit_every = jit_every - 1)
