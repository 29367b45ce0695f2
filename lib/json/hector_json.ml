(* The value type, its one printer, a parser and the field accessors and
   file helpers every on-disk format shares.  A leaf library, so every
   layer from observability up builds its documents as values. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* --- printing ----------------------------------------------------------- *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 0x1p53 then Printf.sprintf "%.0f" f
  else
    (* Any decimal of at most 15 significant digits survives a trip through
       a normal double, so the search for the shortest one that reads back
       starts at 15 digits; only subnormals can need fewer. *)
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p = 17 || Float.equal (float_of_string s) f then s else shortest (p + 1)
    in
    shortest (if Float.abs f < Float.min_float then 1 else 15)

let to_string v =
  let b = Buffer.create 256 in
  let str s =
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  in
  let rec value = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (number f)
    | Str s -> str s
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            value x)
          l;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            str k;
            Buffer.add_char b ':';
            value x)
          fields;
        Buffer.add_char b '}'
  in
  value v;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------ *)

exception Malformed

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then s.[!i] else raise Malformed in
  let skip_ws () =
    while !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr i
    done
  in
  let expect c = if !i < n && s.[!i] = c then incr i else raise Malformed in
  let literal lit v =
    let l = String.length lit in
    if !i + l <= n && String.equal (String.sub s !i l) lit then (
      i := !i + l;
      v)
    else raise Malformed
  in
  (* the four hex digits after a "\u" at [!i]; leaves [!i] on the last *)
  let hex4 () =
    if !i + 4 >= n then raise Malformed;
    let code = ref 0 in
    for k = 1 to 4 do
      let d =
        match s.[!i + k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> raise Malformed
      in
      code := (!code * 16) + d
    done;
    i := !i + 4;
    !code
  in
  let add_code b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code >= 0xD800 && code < 0xDC00 then begin
      (* a high surrogate must be followed by "\u" and its low half *)
      if !i + 2 >= n || s.[!i + 1] <> '\\' || s.[!i + 2] <> 'u' then raise Malformed;
      i := !i + 2;
      let low = hex4 () in
      if low < 0xDC00 || low >= 0xE000 then raise Malformed;
      Buffer.add_utf_8_uchar b
        (Uchar.of_int (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)))
    end
    else if code >= 0xDC00 && code < 0xE000 then raise Malformed
    else Buffer.add_utf_8_uchar b (Uchar.of_int code)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then raise Malformed
      else
        match s.[!i] with
        | '"' -> incr i
        | '\\' ->
            incr i;
            (match peek () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' -> add_code b (hex4 ())
            | _ -> raise Malformed);
            incr i;
            go ()
        | c when Char.code c < 0x20 -> raise Malformed
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !i in
    while
      !i < n
      && match s.[!i] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some f -> f
    | None -> raise Malformed
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' ->
        incr i;
        skip_ws ();
        if peek () = '}' then (
          incr i;
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr i;
                members ((k, v) :: acc)
            | '}' ->
                incr i;
                Obj (List.rev ((k, v) :: acc))
            | _ -> raise Malformed
          in
          members []
    | '[' ->
        incr i;
        skip_ws ();
        if peek () = ']' then (
          incr i;
          Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr i;
                elems (v :: acc)
            | ']' ->
                incr i;
                Arr (List.rev (v :: acc))
            | _ -> raise Malformed
          in
          elems []
    | 't' -> Bool (literal "true" true)
    | 'f' -> Bool (literal "false" false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> n then raise Malformed;
  v

(* --- field accessors ---------------------------------------------------- *)

let member o name = match o with Obj fields -> List.assoc_opt name fields | _ -> None

let bool_field o name d =
  match member o name with Some (Bool b) -> b | Some _ -> raise Malformed | None -> d

let num_field o name d =
  match member o name with Some (Num f) -> f | Some _ -> raise Malformed | None -> d

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 0x1p53 -> int_of_float f
  | _ -> raise Malformed

let int_field o name d = match member o name with Some v -> to_int v | None -> d

let str_field o name =
  match member o name with Some (Str s) -> s | _ -> raise Malformed

let str_field_opt o name =
  match member o name with
  | Some (Str s) -> Some s
  | Some Null | None -> None
  | Some _ -> raise Malformed

let int_array_field o name =
  match member o name with
  | Some (Arr l) -> Array.of_list (List.map to_int l)
  | _ -> raise Malformed

(* --- atomic file IO ----------------------------------------------------- *)

(* Durable-write helper shared by every on-disk format: the payload lands
   in a sibling temporary first and reaches [path] only through rename, so
   a crash mid-write leaves either the old file or the complete new one —
   never a truncated hybrid.  The temporary embeds the writer's pid so two
   processes saving concurrently cannot interleave halves of one temp. *)
let write_atomic path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     flush oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s
