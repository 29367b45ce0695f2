(* Order statistics over measured samples.

   Quantiles interpolate linearly between the closest ranks of the sorted
   samples (rank q·(n−1)), so a quantile of one sample is that sample. *)

let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let lower_quartile xs = quantile xs 0.25

let gmean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

type summary = { n : int; p25 : float; median : float; p75 : float; p90 : float }

let summary xs =
  {
    n = Array.length xs;
    p25 = quantile xs 0.25;
    median = quantile xs 0.5;
    p75 = quantile xs 0.75;
    p90 = quantile xs 0.9;
  }

(* A growable float buffer for per-operation samples. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 64 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
