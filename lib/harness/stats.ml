(** Small statistics helpers for the experiment harness. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) xs))

(** Relative standard deviation, in percent. *)
let stddev_pct xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else 100.0 *. stddev xs /. m

(** [percentile xs p] is the [p]-th percentile (0..100) of [xs] under
    linear interpolation between closest ranks: the rank of [p] is
    [p/100 * (n-1)] over the sorted sample, fractional ranks
    interpolate between the two neighbouring order statistics.
    [nan] on the empty list; the sole element on a singleton.

    Non-finite samples (NaN from a failed measurement, infinities
    from a zero division upstream) are dropped before ranking — they
    have no defined order and would otherwise poison the sort.  A
    non-finite [p] is treated as the median. *)
let percentile xs p =
  match List.filter Float.is_finite xs with
  | [] -> nan
  | [ x ] -> x
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let p = if Float.is_finite p then p else 50.0 in
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

(** [histogram ?bins xs] buckets [xs] into [bins] equal-width buckets
    spanning [min xs, max xs]; returns [(lo, hi, count)] per bucket,
    in order.  Empty input yields no buckets; a constant sample lands
    entirely in the first bucket (degenerate zero-width range, unit
    bucket width).  Non-finite samples are dropped: a NaN would make
    the whole [min xs, max xs] range NaN and every bucket index
    undefined. *)
let histogram ?(bins = 10) xs =
  match List.filter Float.is_finite xs with
  | [] -> [||]
  | xs ->
      let bins = max 1 bins in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      let w = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
      let counts = Array.make bins 0 in
      List.iter
        (fun x ->
          let i = int_of_float ((x -. lo) /. w) in
          let i = max 0 (min (bins - 1) i) in
          counts.(i) <- counts.(i) + 1)
        xs;
      Array.mapi
        (fun i c ->
          (lo +. (w *. float_of_int i), lo +. (w *. float_of_int (i + 1)), c))
        counts

(** A crude ASCII bar for figure-style output. *)
let bar ?(width = 40) ~max_value v =
  let n =
    if max_value <= 0.0 then 0
    else int_of_float (Float.round (float_of_int width *. v /. max_value))
  in
  String.make (max 0 (min width n)) '#'

(** HDR-style log2-bucketed histogram over non-negative magnitudes.

    The equal-width {!histogram} above needs the whole sample in
    memory and cannot resolve a microsecond tail under a
    millisecond-wide bucket once the range spans decades.  This one
    is streaming and O(1) per sample: a value [v >= 1] lands in
    octave [floor (log2 v)], subdivided into [sub] linear sub-buckets,
    so the relative width of any bucket — and hence the worst-case
    quantile error — is bounded by [1/sub] regardless of range.

    Hardened like {!percentile}: non-finite or negative samples are
    counted in [dropped] and excluded, never indexed.  Values in
    [0, 1) share a dedicated underflow bucket (cycle counts are
    integers, so in practice only exact zeros land there). *)
module Log_hist = struct
  type t = {
    sub : int;  (** linear sub-buckets per octave *)
    counts : int array;  (** 64 octaves x [sub] *)
    mutable under : int;  (** samples in [0, 1) *)
    mutable dropped : int;  (** non-finite or negative samples *)
    mutable total : int;  (** indexed samples, [under] included *)
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let octaves = 64

  let create ?(sub = 16) () =
    let sub = max 1 sub in
    {
      sub;
      counts = Array.make (octaves * sub) 0;
      under = 0;
      dropped = 0;
      total = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
    }

  let index t v =
    let e = int_of_float (Float.floor (Float.log2 v)) in
    let e = min (octaves - 1) e in
    (* position within the octave, in [1, 2) *)
    let f = v /. Float.pow 2.0 (float_of_int e) in
    let s = min (t.sub - 1) (int_of_float ((f -. 1.0) *. float_of_int t.sub)) in
    (e * t.sub) + s

  (** [lo, hi) bounds of bucket [i]. *)
  let bounds t i =
    let e = i / t.sub and s = i mod t.sub in
    let base = Float.pow 2.0 (float_of_int e) in
    let w = base /. float_of_int t.sub in
    (base +. (w *. float_of_int s), base +. (w *. float_of_int (s + 1)))

  let add t v =
    if (not (Float.is_finite v)) || v < 0.0 then t.dropped <- t.dropped + 1
    else begin
      t.total <- t.total + 1;
      t.sum <- t.sum +. v;
      if v < t.min_v then t.min_v <- v;
      if v > t.max_v then t.max_v <- v;
      if v < 1.0 then t.under <- t.under + 1
      else
        let i = index t v in
        t.counts.(i) <- t.counts.(i) + 1
    end

  let count t = t.total
  let dropped t = t.dropped
  let sum t = t.sum
  let mean t = if t.total = 0 then nan else t.sum /. float_of_int t.total
  let min_value t = if t.total = 0 then nan else t.min_v
  let max_value t = if t.total = 0 then nan else t.max_v

  (** Non-empty buckets in increasing value order as
      [(lo, hi, count)], the underflow bucket first as [(0, 1, n)]. *)
  let buckets t =
    let acc = ref [] in
    for i = Array.length t.counts - 1 downto 0 do
      if t.counts.(i) > 0 then
        let lo, hi = bounds t i in
        acc := (lo, hi, t.counts.(i)) :: !acc
    done;
    let acc = if t.under > 0 then (0.0, 1.0, t.under) :: !acc else !acc in
    Array.of_list acc

  (** Estimated [p]-th percentile (0..100) under the same
      closest-ranks convention as {!percentile}: rank
      [p/100 * (n-1)], interpolated linearly inside the bucket the
      rank lands in, then clamped to the exact observed min/max (so
      p0 and p100 are exact).  [nan] on an empty histogram; a
      non-finite [p] reads as the median. *)
  let percentile t p =
    if t.total = 0 then nan
    else begin
      let p = if Float.is_finite p then p else 50.0 in
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (t.total - 1) in
      (* walk buckets until the cumulative count covers the rank *)
      let est = ref t.max_v in
      let cum = ref 0.0 in
      let found = ref false in
      (* Position of the rank inside a bucket of [c] samples, each
         sample taking the middle of its 1/c slice.  Clamped to 1: in
         a bucket's last half-sample the slice midpoint would put the
         estimate past the bucket's upper bound. *)
      let frac c = Float.min 1.0 ((rank -. !cum +. 0.5) /. c) in
      if (not !found) && t.under > 0 then begin
        let c = float_of_int t.under in
        if rank < !cum +. c then begin
          est := frac c;
          found := true
        end
        else cum := !cum +. c
      end;
      let i = ref 0 in
      let n = Array.length t.counts in
      while (not !found) && !i < n do
        let c = t.counts.(!i) in
        if c > 0 then begin
          let cf = float_of_int c in
          if rank < !cum +. cf then begin
            let lo, hi = bounds t !i in
            est := lo +. (frac cf *. (hi -. lo));
            found := true
          end
          else cum := !cum +. cf
        end;
        incr i
      done;
      Float.max t.min_v (Float.min t.max_v !est)
    end

  (** Accumulate [src] into [dst]; both must share [sub]. *)
  let merge ~into:dst src =
    if dst.sub <> src.sub then invalid_arg "Log_hist.merge: sub mismatch";
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.under <- dst.under + src.under;
    dst.dropped <- dst.dropped + src.dropped;
    dst.total <- dst.total + src.total;
    dst.sum <- dst.sum +. src.sum;
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
end

(** Streaming percentile sketch over arbitrary finite floats: a
    {!Log_hist} per sign plus an exact zero count, so it accepts the
    full float range while keeping Log_hist's bounded relative error
    on each side.  Non-finite samples are dropped (and counted), as
    everywhere in this module. *)
module Sketch = struct
  type t = {
    pos : Log_hist.t;
    neg : Log_hist.t;  (** magnitudes of negative samples *)
  }

  let create ?sub () =
    { pos = Log_hist.create ?sub (); neg = Log_hist.create ?sub () }

  let add t v =
    if not (Float.is_finite v) then t.pos.Log_hist.dropped <- t.pos.Log_hist.dropped + 1
    else if v < 0.0 then Log_hist.add t.neg (-.v)
    else Log_hist.add t.pos v

  let of_list ?sub xs =
    let t = create ?sub () in
    List.iter (add t) xs;
    t

  let count t = Log_hist.count t.pos + Log_hist.count t.neg
  let dropped t = Log_hist.dropped t.pos + Log_hist.dropped t.neg
  let sum t = Log_hist.sum t.pos -. Log_hist.sum t.neg
  let mean t = if count t = 0 then nan else sum t /. float_of_int (count t)

  let min_value t =
    if Log_hist.count t.neg > 0 then -.Log_hist.max_value t.neg
    else Log_hist.min_value t.pos

  let max_value t =
    if Log_hist.count t.pos > 0 then Log_hist.max_value t.pos
    else -.Log_hist.min_value t.neg

  (** Same convention as {!Log_hist.percentile}, spliced across the
      negative and non-negative halves of the sample. *)
  let percentile t p =
    let np = Log_hist.count t.pos and nn = Log_hist.count t.neg in
    let n = np + nn in
    if n = 0 then nan
    else if nn = 0 then Log_hist.percentile t.pos p
    else if np = 0 then -.Log_hist.percentile t.neg (100.0 -. p)
    else begin
      let p = if Float.is_finite p then p else 50.0 in
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      if rank < float_of_int nn then
        (* rank r from the bottom is rank (nn-1-r) from the top of the
           mirrored magnitude histogram *)
        let q =
          if nn = 1 then 50.0
          else (float_of_int (nn - 1) -. rank) /. float_of_int (nn - 1) *. 100.0
        in
        -.Log_hist.percentile t.neg q
      else
        let q =
          if np = 1 then 50.0
          else (rank -. float_of_int nn) /. float_of_int (np - 1) *. 100.0
        in
        Log_hist.percentile t.pos q
    end
end
