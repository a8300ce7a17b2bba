type record = { tag : string; fields : (string * string) list }

let version = 1
let magic = "macs-journal"

(* ---- field escaping ----
   Records are one line each, fields tab-separated, [key=value].  Keys and
   values are percent-escaped so arbitrary strings (fault-plan specs, error
   messages) survive the round trip byte-for-byte. *)

let must_escape c =
  c = '%' || c = '\t' || c = '\n' || c = '\r' || c = '='

let escape s =
  if String.exists must_escape s then begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if must_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

(* ---- record codec ---- *)

let encode r =
  String.concat "\t"
    (escape r.tag
    :: List.map (fun (k, v) -> escape k ^ "=" ^ escape v) r.fields)

let ( let* ) = Result.bind

(* A line is decoded in one scan: [scan_piece] walks a piece (the tag, a
   key or a value) to its end, counting its escapes and noting the first
   bad one, and [piece] then copies it out once.  The errors and their
   order are those of splitting on tabs, then on a field's first '=',
   then unescaping each part: a field with no '=' is reported before a
   bad escape in its key, and an escape cannot reach past its piece. *)

let hex c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'A' .. 'F' -> Char.code c - 55
  | 'a' .. 'f' -> Char.code c - 87
  | _ -> -1

(* The byte an escape's digits stand for, or -1 where
   [int_of_string_opt ("0x" ^ digits)] refuses them: the first must be a
   hex digit, the second a hex digit or the '_' OCaml's integer syntax
   skips (so [%F_] reads as ['\x0f']). *)
let escape_code c1 c2 =
  let h = hex c1 in
  if h < 0 then -1
  else if c2 = '_' then h
  else
    let l = hex c2 in
    if l < 0 then -1 else (h lsl 4) lor l

type cursor = {
  mutable escapes : int;  (* escapes in the piece just scanned *)
  mutable error : string option;  (* its first bad escape *)
  mutable last : int;  (* where the line just decoded ended *)
}

let cursor () = { escapes = 0; error = None; last = 0 }

(* Does a piece end at [j]?  Every piece ends at [stop] and at a tab, a
   key also at '=', and with [nl] a line also at a newline. *)
let ends s j stop ~key ~nl =
  j >= stop
  ||
  match String.unsafe_get s j with
  | '\t' -> true
  | '=' -> key
  | '\n' -> nl
  | _ -> false

(* Most of a journal is long values with no escape in them.  A tag or
   value skips eight bytes at a time past words that hold no tab,
   newline or '%' (SWAR: a byte of [x] equals [b] iff that byte of
   [x lxor (b * 0x01..01)] is zero, and [(y - 0x01..01) land lnot y land
   0x80..80] is non-zero iff some byte of [y] is). *)
let ones = 0x0101010101010101L

let[@inline] zero_byte y =
  Int64.logand (Int64.logand (Int64.sub y ones) (Int64.lognot y))
    0x8080808080808080L

let rec skip_plain s i stop =
  if i + 8 > stop then i
  else
    let x = String.get_int64_le s i in
    if
      Int64.logor
        (zero_byte (Int64.logxor x 0x0909090909090909L))
        (Int64.logor
           (zero_byte (Int64.logxor x 0x0a0a0a0a0a0a0a0aL))
           (zero_byte (Int64.logxor x 0x2525252525252525L)))
      = 0L
    then skip_plain s (i + 8) stop
    else i

let rec scan_piece s i stop ~key ~nl c =
  let i = if key then i else skip_plain s i stop in
  if i >= stop then i
  else
    match String.unsafe_get s i with
    | '\t' -> i
    | '=' when key -> i
    | '\n' when nl -> i
    | '%' when Option.is_none c.error ->
        if ends s (i + 1) stop ~key ~nl || ends s (i + 2) stop ~key ~nl then begin
          c.error <- Some "truncated %-escape";
          scan_piece s (i + 1) stop ~key ~nl c
        end
        else if escape_code s.[i + 1] s.[i + 2] < 0 then begin
          c.error <- Some (Printf.sprintf "bad %%-escape %S" (String.sub s i 3));
          scan_piece s (i + 1) stop ~key ~nl c
        end
        else begin
          c.escapes <- c.escapes + 1;
          scan_piece s (i + 3) stop ~key ~nl c
        end
    | _ -> scan_piece s (i + 1) stop ~key ~nl c

let scan s i stop ~key ~nl c =
  c.escapes <- 0;
  c.error <- None;
  scan_piece s i stop ~key ~nl c

(* [s.[a, b)] with its [k] valid escapes decoded *)
let piece s a b k =
  if k = 0 then String.sub s a (b - a)
  else begin
    let out = Bytes.create (b - a - (2 * k)) in
    let rec go i o =
      if i < b then
        match String.unsafe_get s i with
        | '%' ->
            Bytes.unsafe_set out o
              (Char.unsafe_chr (escape_code s.[i + 1] s.[i + 2]));
            go (i + 3) (o + 1)
        | ch ->
            Bytes.unsafe_set out o ch;
            go (i + 1) (o + 1)
    in
    go a 0;
    Bytes.unsafe_to_string out
  end

(* Decode the record starting at [pos]; it ends at [stop] or, with [nl],
   at the first newline.  On success [c.last] is where it ended. *)
let decode_at ~nl s pos stop c =
  let at_tab e = e < stop && String.unsafe_get s e = '\t' in
  let e = scan s pos stop ~key:false ~nl c in
  if e = pos && not (at_tab e) then Error "empty journal line"
  else
    match c.error with
    | Some err -> Error err
    | None ->
        let tag = piece s pos e c.escapes in
        let rec fields acc i =
          let ke = scan s i stop ~key:true ~nl c in
          if not (ke < stop && String.unsafe_get s ke = '=') then
            Error (Printf.sprintf "field %S has no '='" (String.sub s i (ke - i)))
          else
            match c.error with
            | Some err -> Error err
            | None -> (
                let key = piece s i ke c.escapes in
                let ve = scan s (ke + 1) stop ~key:false ~nl c in
                match c.error with
                | Some err -> Error err
                | None ->
                    let acc = (key, piece s (ke + 1) ve c.escapes) :: acc in
                    if at_tab ve then fields acc (ve + 1)
                    else begin
                      c.last <- ve;
                      Ok (List.rev acc)
                    end)
        in
        if at_tab e then
          Result.map (fun fields -> { tag; fields }) (fields [] (e + 1))
        else begin
          c.last <- e;
          Ok { tag; fields = [] }
        end

let decode line = decode_at ~nl:false line 0 (String.length line) (cursor ())

let field r key = List.assoc_opt key r.fields

let field_err r key =
  match field r key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "record %S: missing field %S" r.tag key)

(* Floats travel as hex literals ("%h"): every finite double round-trips
   byte-exactly, and nan/infinity print and parse symmetrically. *)
let put_float x = Printf.sprintf "%h" x
let get_float s = float_of_string_opt s
let put_int = string_of_int
let get_int s = int_of_string_opt s
let put_bool b = if b then "1" else "0"

let get_bool = function
  | "1" -> Some true
  | "0" -> Some false
  | _ -> None

(* ---- file I/O ---- *)

let header ~format =
  {
    tag = magic;
    fields = [ ("version", string_of_int version); ("format", format) ];
  }

let check_header ~format r =
  if r.tag <> magic then
    Error (Printf.sprintf "not a journal: leading tag %S" r.tag)
  else
    let* v = field_err r "version" in
    let* f = field_err r "format" in
    if v <> string_of_int version then
      Error (Printf.sprintf "unsupported journal version %s (want %d)" v version)
    else if f <> format then
      Error (Printf.sprintf "journal format %S, expected %S" f format)
    else Ok ()

(* All journal bytes pass through [Sink] as explicit write boundaries so
   the crash-sweep harness can kill a simulated process at any of them.
   [create] is a single boundary (header + initial records in one write):
   a torn create leaves a byte prefix, never interleaved lines.  Only the
   two-phase [write_atomic] fsyncs the bytes before the channel closes. *)

let write_fresh ~sync ~path ~format records =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (encode (header ~format));
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (encode r);
      Buffer.add_char buf '\n')
    records;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Sink.write oc ~site:("journal-create:" ^ path) (Buffer.contents buf);
      if sync then Sink.fsync_out oc)

let create = write_fresh ~sync:false

let append ~path r =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Sink.write oc ~site:("journal-append:" ^ path) (encode r ^ "\n"))

(* ---- crash triage and recovery ----

   A journal is born in one [create] write of header + initial records,
   and a torn write can only leave a byte *prefix* — it can never
   manufacture a newline.  So a file with no complete first line, or a
   complete header but no complete record after it, is just a create
   that never finished: nothing can have been appended to it, and it is
   safe to start over.  A complete first line that is not a matching
   header is genuine damage (or somebody else's file) and must not be
   clobbered.

   [recover] reads the file once and decodes each line once, in place.
   The records kept are the longest prefix of newline-terminated
   decodable lines; anything after it is a torn tail, cut off in place
   with [Unix.truncate] (the inode and the kept bytes never move, so a
   kill mid-repair cannot shorten the journal below that prefix) —
   unless a decodable line follows the bad one, which is interior
   corruption: truncating would silently discard valid records, so it
   is reported and the file left as it is. *)

type recovery = Fresh | Damaged of string | Intact of record list

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let recover ~path ~format =
  if not (Sys.file_exists path) then Ok Fresh
  else begin
    let s = read_file path in
    let n = String.length s in
    let c = cursor () in
    let decode_line i = decode_at ~nl:true s i n c in
    (* is a complete line at or after [i] decodable? *)
    let rec tail_has_good i =
      match decode_line i with
      | Ok _ -> c.last < n
      | Error _ -> (
          match String.index_from_opt s i '\n' with
          | Some nl -> tail_has_good (nl + 1)
          | None -> false)
    in
    let torn_tail ~keep records =
      Unix.truncate path keep;
      Ok (Intact (List.rev records))
    in
    (* [i] starts a line; every line before it decoded *)
    let rec rows ~first records i =
      if i >= n then Ok (if first then Fresh else Intact (List.rev records))
      else
        match decode_line i with
        | Ok r when c.last < n -> rows ~first:false (r :: records) (c.last + 1)
        | Ok _ -> if first then Ok Fresh else torn_tail ~keep:i records
        | Error e -> (
            match String.index_from_opt s i '\n' with
            | None -> if first then Ok Fresh else torn_tail ~keep:i records
            | Some nl ->
                if tail_has_good (nl + 1) then
                  Error (Printf.sprintf "corrupt journal line: %s" e)
                else torn_tail ~keep:i records)
    in
    match decode_line 0 with
    | Ok _ when c.last >= n -> Ok Fresh
    | Error _ when not (String.contains s '\n') -> Ok Fresh
    | Error e ->
        Ok (Damaged (Printf.sprintf "journal %s: undecodable first line: %s" path e))
    | Ok hd -> (
        match check_header ~format hd with
        | Error e -> Ok (Damaged (Printf.sprintf "journal %s: %s" path e))
        | Ok () -> rows ~first:true [] (c.last + 1))
  end

let write_atomic ~path ~format records =
  let tmp = path ^ ".tmp" in
  (* two-phase publish: the tmp bytes are forced to disk *before* the
     rename, and the directory entry after it, so a power cut right
     after publish cannot surface an empty or torn main journal *)
  write_fresh ~sync:true ~path:tmp ~format records;
  Sink.rename ~site:("journal-publish:" ^ path) tmp path;
  Sink.fsync_dir (Filename.dirname path)

(* ---- per-worker shards ----

   A parallel run gives each worker domain its own append-only shard file
   [<path>.shard<K>] so no two domains ever write the same journal.  A
   shard opens with the same header and config record as the main journal
   and then carries one [shard-cell] wrapper per inner record; the inner
   record travels as its own encoded line inside a [rec=] field (the
   percent-escaping nests cleanly).  [merge_shards] folds any surviving
   shards back into the main journal in cell-index order, reconstructing
   the byte-identical sequential journal. *)

let shard_tag = "shard-cell"
let shard_path ~path k = Printf.sprintf "%s.shard%d" path k

let shards ~path =
  let dir = Filename.dirname path in
  let base = Filename.basename path ^ ".shard" in
  let bn = String.length base in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             if String.length e > bn && String.sub e 0 bn = base then
               match int_of_string_opt (String.sub e bn (String.length e - bn)) with
               | Some k when k >= 0 -> Some (k, Filename.concat dir e)
               | _ -> None
             else None)
      |> List.sort compare

let remove_shards ~path =
  List.iter
    (fun (_, file) -> try Sys.remove file with Sys_error _ -> ())
    (shards ~path)

let shard_start ~path ~shard ~format ~config =
  create ~path:(shard_path ~path shard) ~format [ config ]

let shard_wrap ~index ~seq r =
  {
    tag = shard_tag;
    fields = [ ("i", put_int index); ("n", put_int seq); ("rec", encode r) ];
  }

let shard_unwrap r =
  if r.tag <> shard_tag then
    Error (Printf.sprintf "expected a %S record, got %S" shard_tag r.tag)
  else
    let* i = field_err r "i" in
    let* n = field_err r "n" in
    let* line = field_err r "rec" in
    match (get_int i, get_int n) with
    | Some i, Some n ->
        let* inner = decode line in
        Ok (i, n, inner)
    | _ -> Error (Printf.sprintf "%s record: non-integer cell coordinates" shard_tag)

let shard_append ~path ~shard ~index ~seq r =
  append ~path:(shard_path ~path shard) (shard_wrap ~index ~seq r)

(* ---- merge-on-resume ---- *)

let merge_shards ~path ~format ~config_ok ~index_of =
  match recover ~path ~format with
  | Error e -> Error e
  | Ok Fresh -> Ok None
  | Ok (Damaged why) -> Error why
  | Ok (Intact []) -> Error (Printf.sprintf "journal %s holds no config record" path)
  | Ok (Intact (config :: body)) ->
      let* () = config_ok config in
      (* Group the main journal's records into per-cell blocks: every
         record up to and including the next closer ([index_of] = [Some i])
         belongs to cell [i].  A trailing block without a closer is a torn
         cell — dropped, so the cell simply re-runs. *)
      let main_cells =
        let rec go pending acc = function
          | [] -> List.rev acc
          | r :: rest -> (
              match index_of r with
              | Some i -> go [] ((i, List.rev (r :: pending)) :: acc) rest
              | None -> go (r :: pending) acc rest)
        in
        go [] [] body
      in
      let shard_files = shards ~path in
      let load_shard (_, file) =
        match recover ~path:file ~format with
        | Error e -> Error e
        (* a worker killed inside [shard_start] leaves a shard with a torn
           or absent header: no cell can have landed in it, so it merges
           as empty (and is still swept away below) *)
        | Ok Fresh -> Ok []
        | Ok (Damaged why) -> Error why
        | Ok (Intact []) ->
            Error (Printf.sprintf "shard %s holds no config record" file)
        | Ok (Intact (cfg :: body)) ->
            let* () =
              match config_ok cfg with
              | Ok () -> Ok ()
              | Error e ->
                  Error
                    (Printf.sprintf
                       "shard %s: config header mismatch, refusing to merge: %s"
                       file e)
            in
            List.fold_left
              (fun acc r ->
                let* acc = acc in
                let* cell = shard_unwrap r in
                Ok (cell :: acc))
              (Ok []) body
      in
      let* triples =
        List.fold_left
          (fun acc sf ->
            let* acc = acc in
            let* cells = load_shard sf in
            Ok (List.rev_append cells acc))
          (Ok []) shard_files
      in
      let sorted =
        List.sort (fun (i, n, _) (j, m, _) -> compare (i, n) (j, m)) triples
      in
      let shard_cells =
        let rec go acc = function
          | [] -> List.rev_map (fun (i, rs) -> (i, List.rev rs)) acc
          | (i, _, r) :: rest -> (
              match acc with
              | (j, rs) :: tl when j = i -> go ((j, r :: rs) :: tl) rest
              | _ -> go ((i, [ r ]) :: acc) rest)
        in
        go [] sorted
      in
      let module IMap = Map.Make (Int) in
      let add m (i, rs) = if IMap.mem i m then m else IMap.add i rs m in
      let merged = List.fold_left add IMap.empty main_cells in
      let merged = List.fold_left add merged shard_cells in
      let cells = IMap.bindings merged in
      if shard_files <> [] then begin
        write_atomic ~path ~format (config :: List.concat_map snd cells);
        List.iter (fun (_, file) -> Sys.remove file) shard_files
      end;
      Ok (Some (config, cells))
