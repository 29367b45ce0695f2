type t = { mutable state : int64 }

let mix64 z =
  (* splitmix64 finalizer; good avalanche for arbitrary integer seeds. *)
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let s = mix64 (Int64.of_int (seed lxor 0x9e3779b9)) in
  let s = if Int64.equal s 0L then 0x2545f4914f6cdd1dL else s in
  { state = s }

let state t = t.state

let of_state s =
  (* xorshift64* has a single absorbing state at zero; map it to the same
     replacement [create] uses so every int64 yields a live generator *)
  let s = if Int64.equal s 0L then 0x2545f4914f6cdd1dL else s in
  { state = s }

let set_state t s = t.state <- (of_state s).state

let next t =
  (* xorshift64* *)
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  Int64.mul x 0x2545f4914f6cdd1dL

let split t =
  let s = mix64 (next t) in
  let s = if Int64.equal s 0L then 0x9e3779b97f4a7c15L else s in
  { state = s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let x = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  x mod bound

let uniform t =
  (* 53 bits of mantissa out of the top of the state. *)
  let x = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int x /. 9007199254740992.0

let float t bound = uniform t *. bound

let gaussian t =
  let rec draw () =
    let u1 = uniform t in
    if u1 <= 1e-12 then draw ()
    else
      let u2 = uniform t in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  draw ()

(* [prefix.(i)] is the harmonic sum of the first [i + 1] weights [1 / k^s],
   accumulated left to right: bit for bit a linear scan's running total,
   which is what keeps table draws equal to scan draws. *)
type zipf_table = float array

let zipf_table ~n ~s =
  if n <= 0 then invalid_arg (Printf.sprintf "Rng.zipf_table: n must be positive (got %d)" n);
  if not (Float.is_finite s) then
    invalid_arg (Printf.sprintf "Rng.zipf_table: s must be finite (got %g)" s);
  let prefix = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. (float_of_int i ** s));
    prefix.(i - 1) <- !acc
  done;
  prefix

let zipf_draw t prefix =
  let n = Array.length prefix in
  let target = uniform t *. prefix.(n - 1) in
  (* Lower bound: the first index whose prefix reaches [target], which is
     where a scan would stop because prefixes never decrease; [n - 1] when
     none reaches it (a NaN target, from an infinite total). *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if prefix.(mid) >= target then hi := mid else lo := mid + 1
  done;
  !lo

let zipf t ~n ~s = zipf_draw t (zipf_table ~n ~s)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* [shuffle]'s draws with [next] and [int] inlined over a local state, so
   ocamlopt keeps it unboxed: no allocation per draw. *)
let shuffle_pair t a b n =
  if n > Array.length a || n > Array.length b then invalid_arg "Rng.shuffle_pair: n too large";
  let s = ref t.state in
  for i = n - 1 downto 1 do
    let x = !s in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    s := x;
    let j =
      Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x2545f4914f6cdd1dL) 2) mod (i + 1)
    in
    let ta = a.(i) and tb = b.(i) in
    a.(i) <- a.(j);
    b.(i) <- b.(j);
    a.(j) <- ta;
    b.(j) <- tb
  done;
  t.state <- !s

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
