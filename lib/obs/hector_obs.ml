type span = {
  name : string;
  kind : string;
  start_ms : float;
  duration_ms : float;
  children : span list;
}

(* In-flight/recorded spans, children kept newest-first until exported. *)
type node = {
  nname : string;
  nkind : string;
  nstart_ms : float;
  mutable ndur_ms : float;
  mutable nchildren : node list;  (* newest first *)
}

type t = {
  on : bool;
  origin : float;  (* Unix.gettimeofday at creation, seconds *)
  mutable roots : node list;  (* newest first *)
  mutable stack : node list;  (* innermost open span first *)
  values : (string, int ref) Hashtbl.t;
}

let disabled =
  { on = false; origin = 0.0; roots = []; stack = []; values = Hashtbl.create 1 }

let create ?(enabled = true) () =
  if not enabled then disabled
  else
    { on = true; origin = Unix.gettimeofday (); roots = []; stack = []; values = Hashtbl.create 16 }

let enabled t = t.on

let now_ms t = (Unix.gettimeofday () -. t.origin) *. 1e3

let time t ~kind name f =
  if not t.on then f ()
  else begin
    let n = { nname = name; nkind = kind; nstart_ms = now_ms t; ndur_ms = 0.0; nchildren = [] } in
    t.stack <- n :: t.stack;
    let finish () =
      n.ndur_ms <- now_ms t -. n.nstart_ms;
      (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
      match t.stack with
      | parent :: _ -> parent.nchildren <- n :: parent.nchildren
      | [] -> t.roots <- n :: t.roots
    in
    Fun.protect ~finally:finish f
  end

let add t name n =
  if t.on then
    match Hashtbl.find_opt t.values name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.values name (ref n)

let counter t name = match Hashtbl.find_opt t.values name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.values []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* nodes are accumulated newest-first; export in chronological order *)
let rec export (n : node) =
  {
    name = n.nname;
    kind = n.nkind;
    start_ms = n.nstart_ms;
    duration_ms = n.ndur_ms;
    children = List.rev_map export n.nchildren;
  }

let spans t = List.rev_map export t.roots

let reset t =
  t.roots <- [];
  t.stack <- [];
  Hashtbl.reset t.values

(* --- export ------------------------------------------------------- *)

module Json = Hector_json

let rec span_json s : Json.t =
  Obj
    [
      ("name", Str s.name);
      ("kind", Str s.kind);
      ("start_ms", Num s.start_ms);
      ("duration_ms", Num s.duration_ms);
      ("children", Arr (List.map span_json s.children));
    ]

let spans_json t : Json.t = Arr (List.map span_json (spans t))

let counters_json t : Json.t = Obj (List.map (fun (k, v) -> (k, Json.int v)) (counters t))

let trace_json t ~pid =
  let rec events s =
    Json.Obj
      [
        ("name", Str s.name);
        ("cat", Str s.kind);
        ("ph", Str "X");
        ("ts", Num (s.start_ms *. 1e3));
        ("dur", Num (s.duration_ms *. 1e3));
        ("pid", Json.int pid);
        ("tid", Json.int 1);
      ]
    :: List.concat_map events s.children
  in
  List.concat_map events (spans t)

let trace_events t ~pid = List.map Json.to_string (trace_json t ~pid)

(* --- shared metrics schema ------------------------------------------- *)

module Metrics = struct
  let comm ~posted_ms ~exposed_ms : Json.t =
    let overlap_ratio =
      if posted_ms > 0.0 then Stdlib.max 0.0 ((posted_ms -. exposed_ms) /. posted_ms)
      else 0.0
    in
    Obj
      [
        ("posted_ms", Num posted_ms);
        ("exposed_ms", Num exposed_ms);
        ("overlap_ratio", Num overlap_ratio);
      ]

  let envelope ~subsystem ~elapsed_ms ~launches fields : Json.t =
    Obj
      (("subsystem", Str subsystem)
      :: ("elapsed_ms", Num elapsed_ms)
      :: ("launches", Json.int launches)
      :: fields)
end
