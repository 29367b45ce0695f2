module Tensor = Hector_tensor.Tensor
module Json = Hector_json
module Knobs = Hector_runtime.Knobs

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type t = {
  model : string;
  step : int;
  rng : int64 option;
  epoch : int;
  graph_version : int;
  meta : (string * string) list;
  tensors : (string * Tensor.t) list;
}

let create ?(model = "") ?(step = 0) ?rng ?(epoch = 0) ?(graph_version = 0) ?(meta = [])
    tensors =
  if step < 0 then invalid_arg "Checkpoint.create: step must be non-negative";
  { model; step; rng; epoch; graph_version; meta; tensors }

let model t = t.model
let step t = t.step
let rng t = t.rng
let epoch t = t.epoch
let graph_version t = t.graph_version
let meta t = t.meta
let tensors t = t.tensors

let tensor t name = List.assoc_opt name t.tensors

(* --- CRC32 (IEEE, 0xEDB88320) over the binary payload ------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 (s : string) =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  (* present as the conventional unsigned value *)
  Int32.to_int (Int32.logxor !c 0xFFFFFFFFl) land 0xFFFFFFFF

(* --- encoding ------------------------------------------------------------

   File = single-line JSON header + '\n' + binary payload.  The payload is
   the concatenation of every tensor's elements as little-endian IEEE-754
   float64 bits (Int64.bits_of_float) — bitwise-exact round trip, which the
   resume ≡ uninterrupted guarantee depends on.  The header indexes the
   payload ([tensors[].offset]/[count] in elements) and carries its CRC. *)

let format_name = "hector-ckpt"
let format_version = 1

let payload_of_tensors tensors =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (_, w) ->
      let a = Tensor.to_flat_array w in
      Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) a)
    tensors;
  Buffer.contents buf

let header_json t ~payload =
  let tensor offset (name, w) =
    let count = Tensor.numel w in
    ( offset + count,
      Json.(
        Obj
          [
            ("name", Str name);
            ("shape", Arr (Array.to_list (Array.map int (Tensor.shape w))));
            ("offset", int offset);
            ("count", int count);
          ]) )
  in
  Json.(
    Obj
      [
        ("format", Str format_name);
        ("version", int format_version);
        ("model", Str t.model);
        ("step", int t.step);
        ("rng", match t.rng with None -> Null | Some s -> Str (Int64.to_string s));
        ("epoch", int t.epoch);
        ("graph_version", int t.graph_version);
        ("meta", Obj (List.map (fun (k, v) -> (k, Str v)) t.meta));
        ("tensors", Arr (snd (List.fold_left_map tensor 0 t.tensors)));
        ("payload_bytes", int (String.length payload));
        ("crc32", int (crc32 payload));
      ])

let encode t =
  let payload = payload_of_tensors t.tensors in
  Json.to_string (header_json t ~payload) ^ "\n" ^ payload

(* --- decoding ------------------------------------------------------------ *)

let decode data =
  let nl =
    match String.index_opt data '\n' with
    | Some i -> i
    | None -> corrupt "checkpoint: no header/payload separator"
  in
  let header_s = String.sub data 0 nl in
  let payload = String.sub data (nl + 1) (String.length data - nl - 1) in
  let header =
    match Json.parse header_s with
    | h -> h
    | exception Json.Malformed -> corrupt "checkpoint: malformed header JSON"
  in
  let field ?(obj = header) name f =
    match f obj name with
    | v -> v
    | exception Json.Malformed -> corrupt "checkpoint: bad %S field" name
  in
  (match Json.member header "format" with
  | Some (Json.Str s) when String.equal s format_name -> ()
  | _ -> corrupt "checkpoint: not a %s file" format_name);
  let version = field "version" (fun h n -> Json.int_field h n 0) in
  if version <> format_version then corrupt "checkpoint: unsupported version %d" version;
  let payload_bytes = field "payload_bytes" (fun h n -> Json.int_field h n (-1)) in
  if payload_bytes <> String.length payload then
    corrupt "checkpoint: truncated payload (%d bytes, header says %d)" (String.length payload)
      payload_bytes;
  let expect_crc = field "crc32" (fun h n -> Json.int_field h n (-1)) in
  let got_crc = crc32 payload in
  if expect_crc <> got_crc then
    corrupt "checkpoint: CRC mismatch (file %d, computed %d)" expect_crc got_crc;
  let model = match Json.str_field_opt header "model" with Some m -> m | None -> "" in
  let step = field "step" (fun h n -> Json.int_field h n 0) in
  let rng =
    match Json.str_field_opt header "rng" with
    | None -> None
    | Some s -> (
        match Int64.of_string_opt s with
        | Some v -> Some v
        | None -> corrupt "checkpoint: bad rng cursor %S" s)
  in
  let epoch = field "epoch" (fun h n -> Json.int_field h n 0) in
  let graph_version = field "graph_version" (fun h n -> Json.int_field h n 0) in
  let meta =
    match Json.member header "meta" with
    | Some (Json.Obj kvs) ->
        List.map
          (function k, Json.Str v -> (k, v) | k, _ -> corrupt "checkpoint: bad meta entry %S" k)
          kvs
    | None -> []
    | Some _ -> corrupt "checkpoint: bad meta object"
  in
  let bytes = Bytes.unsafe_of_string payload in
  let total_elems = payload_bytes / 8 in
  let tensors =
    match Json.member header "tensors" with
    | Some (Json.Arr entries) ->
        List.map
          (fun e ->
            let name = (try Json.str_field e "name" with Json.Malformed -> corrupt "checkpoint: tensor without name") in
            let shape = (try Json.int_array_field e "shape" with Json.Malformed -> corrupt "checkpoint: bad shape for %S" name) in
            if Array.exists (fun d -> d < 0) shape then corrupt "checkpoint: bad shape for %S" name;
            let offset = field ~obj:e "offset" (fun e n -> Json.int_field e n (-1)) in
            let count = field ~obj:e "count" (fun e n -> Json.int_field e n (-1)) in
            if offset < 0 || count < 0 || offset + count > total_elems then
              corrupt "checkpoint: tensor %S out of payload bounds" name;
            if Array.fold_left ( * ) 1 shape <> count then
              corrupt "checkpoint: tensor %S shape/count mismatch" name;
            let a =
              Array.init count (fun i ->
                  Int64.float_of_bits (Bytes.get_int64_le bytes ((offset + i) * 8)))
            in
            (name, Tensor.of_array shape a))
          entries
    | _ -> corrupt "checkpoint: missing tensors index"
  in
  { model; step; rng; epoch; graph_version; meta; tensors }

(* --- files --------------------------------------------------------------- *)

let filename step = Printf.sprintf "ckpt-%08d.hck" step

let step_of_filename name =
  if String.length name > 9 && String.sub name 0 5 = "ckpt-" && Filename.check_suffix name ".hck"
  then int_of_string_opt (String.sub name 5 (String.length name - 9))
  else None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let resolve_dir dir =
  match dir with
  | Some d -> d
  | None -> (
      match (Knobs.current ()).Knobs.ckpt_dir with
      | Some d -> d
      | None ->
          invalid_arg "Checkpoint: no directory (pass ~dir or set HECTOR_CKPT_DIR)")

let list ?dir () =
  let dir = resolve_dir dir in
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           match step_of_filename name with
           | Some step -> Some (step, Filename.concat dir name)
           | None -> None)
    |> List.sort compare

let latest ?dir () =
  match List.rev (list ?dir ()) with [] -> None | (_, path) :: _ -> Some path

let save ?dir ?keep t =
  let dir = resolve_dir dir in
  mkdir_p dir;
  let path = Filename.concat dir (filename t.step) in
  Json.write_atomic path (encode t);
  let keep = match keep with Some k -> Some k | None -> (Knobs.current ()).Knobs.ckpt_keep in
  (match keep with
  | None -> ()
  | Some k ->
      if k < 1 then invalid_arg "Checkpoint.save: keep must be >= 1";
      let all = list ~dir () in
      let excess = List.length all - k in
      if excess > 0 then
        List.iteri
          (fun i (_, p) ->
            if i < excess then try Sys.remove p with Sys_error _ -> ())
          all);
  path

let load path =
  if not (Sys.file_exists path) then corrupt "checkpoint: %s does not exist" path;
  match decode (Json.read_file path) with
  | t -> t
  | exception Json.Malformed -> corrupt "checkpoint: malformed header in %s" path
