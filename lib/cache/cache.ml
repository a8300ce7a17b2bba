(* Crash-consistent content-addressed result store.

   An entry is keyed by the MD5 of a canonical journal-encoded record of
   everything that determines the result (kernel spec, machine, fault
   plan, harness config, cache format version).  It is stored as one
   self-verifying record: a header line carrying the format version, its
   own key, the payload length and the payload MD5, followed by the raw
   payload bytes.

   Records live in append-only packs, [packs/<pid>-<n>.pack].  A handle
   creates a pack of its own on its first store (the one directory fsync
   it pays) and appends every later record to it, so publishing an entry
   is one write and one fsync.  Only that handle ever appends to the
   pack, so a record torn by a crash can only be a pack's last: nothing
   is written after it, and nothing truncates a file another process may
   still be writing.  A handle's index (key -> pack, offset, length) is
   built on its first find or store by walking every pack's headers.
   Any record that fails verification on a read moves its whole pack to
   [quarantine/] and is reported as a miss: the cache may lose work,
   never invent it. *)

module Journal = Macs_util.Journal
module Sink = Macs_util.Sink

let format_version = 2
let entry_tag = "macs-cache-entry"
let log_format = "macs-cache-log"

(* where a record lives: its pack's file name, its offset and length *)
type loc = { pack : string; off : int; len : int }

(* the pack a handle appends to, and its length so far *)
type writer = { name : string; mutable size : int }

type t = {
  dir : string;
  lock : Mutex.t;  (** guards [index] and [writer]: domains share a handle *)
  mutable index : (string, loc) Hashtbl.t option;
      (** [None] until the first find or store *)
  mutable writer : writer option;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  quarantined : int Atomic.t;
}

type counters = { hits : int; misses : int; stores : int; quarantined : int }

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let packs_dir t = Filename.concat t.dir "packs"
let pack_path t name = Filename.concat (packs_dir t) name
let quarantine_dir t = Filename.concat t.dir "quarantine"
let log_path t = Filename.concat t.dir "cache.log"

let open_dir dir =
  let t =
    {
      dir;
      lock = Mutex.create ();
      index = None;
      writer = None;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      stores = Atomic.make 0;
      quarantined = Atomic.make 0;
    }
  in
  mkdir_p (packs_dir t);
  mkdir_p (quarantine_dir t);
  t

let counters (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    stores = Atomic.get t.stores;
    quarantined = Atomic.get t.quarantined;
  }

let reset_counters (t : t) =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.stores 0;
  Atomic.set t.quarantined 0

(* ---- keys ---- *)

let key ~kind parts =
  let r =
    {
      Journal.tag = "cache-key";
      fields =
        ("kind", kind)
        :: ("cache-version", string_of_int format_version)
        :: parts;
    }
  in
  Digest.to_hex (Digest.string (Journal.encode r))

(* ---- record codec ---- *)

let entry_header ~key payload =
  {
    Journal.tag = entry_tag;
    fields =
      [
        ("version", string_of_int format_version);
        ("key", key);
        ("len", string_of_int (String.length payload));
        ("md5", Digest.to_hex (Digest.string payload));
      ];
  }

(* [Error reason] on any integrity failure; the caller quarantines. *)
let parse_entry ~key s =
  let ( let* ) = Result.bind in
  match String.index_opt s '\n' with
  | None -> Error "no complete header line"
  | Some nl -> (
      match Journal.decode (String.sub s 0 nl) with
      | Error e -> Error ("undecodable header: " ^ e)
      | Ok r ->
          if r.Journal.tag <> entry_tag then
            Error (Printf.sprintf "wrong header tag %S" r.Journal.tag)
          else
            let* v = Journal.field_err r "version" in
            let* k = Journal.field_err r "key" in
            let* len = Journal.field_err r "len" in
            let* md5 = Journal.field_err r "md5" in
            if v <> string_of_int format_version then
              Error (Printf.sprintf "version %s, want %d" v format_version)
            else if k <> key then
              Error (Printf.sprintf "key mismatch: entry claims %s" k)
            else
              let payload =
                String.sub s (nl + 1) (String.length s - nl - 1)
              in
              if Some (String.length payload) <> int_of_string_opt len then
                Error
                  (Printf.sprintf "length mismatch: header %s, actual %d" len
                     (String.length payload))
              else if Digest.to_hex (Digest.string payload) <> md5 then
                Error "payload checksum mismatch"
              else Ok payload)

(* The key and payload length a header line names.  A key is what
   {!key} makes, 32 lowercase hex digits. *)
let header_of_line line =
  match Journal.decode line with
  | Error e -> Error ("undecodable header: " ^ e)
  | Ok r when r.Journal.tag <> entry_tag ->
      Error (Printf.sprintf "wrong header tag %S" r.Journal.tag)
  | Ok r -> (
      let is_key k =
        String.length k = 32
        && String.for_all
             (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
             k
      in
      match
        ( Journal.field r "key",
          Option.bind (Journal.field r "len") int_of_string_opt )
      with
      | Some k, Some n when is_key k && n >= 0 -> Ok (k, n)
      | _ -> Error "header names no key and length")

(* ---- packs ---- *)

(* Walk a pack by its headers alone: each header line that decodes, and
   whose payload fits in the file, gives one record; payloads are
   skipped, never read or hashed.  The walk stops at the end of the file,
   at a strict prefix of a record (what a crash mid-append leaves), or at
   a whole header line that does not decode, whose reason it returns. *)
let scan_pack ~name ic =
  let size = in_channel_length ic in
  let rec go off acc =
    if off >= size then (List.rev acc, None)
    else begin
      seek_in ic off;
      let line = input_line ic in
      let body = off + String.length line + 1 in
      if body > size then (List.rev acc, None)
      else
        match header_of_line line with
        | Error e -> (List.rev acc, Some e)
        | Ok (key, n) ->
            if body + n > size then (List.rev acc, None)
            else
              go (body + n)
                ((key, { pack = name; off; len = body + n - off }) :: acc)
    end
  in
  go 0 []

let list_packs t =
  match Sys.readdir (packs_dir t) with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".pack")
      |> List.sort compare

(* [f ic] over a pack opened for reading; [None] if it is gone. *)
let with_pack t name f =
  match open_in_bin (pack_path t name) with
  | exception Sys_error _ -> None
  | ic ->
      Some (Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic))

(* The index, built on first use; the first record of a key wins.  The
   caller holds the lock. *)
let index t =
  match t.index with
  | Some ix -> ix
  | None ->
      let ix = Hashtbl.create 256 in
      List.iter
        (fun name ->
          Option.iter
            (fun (records, _) ->
              List.iter
                (fun (key, loc) ->
                  if not (Hashtbl.mem ix key) then Hashtbl.add ix key loc)
                records)
            (with_pack t name (scan_pack ~name)))
        (list_packs t);
      t.index <- Some ix;
      ix

(* Drop a pack's records from the index, and stop appending to it if it
   is the handle's own.  The caller holds the lock. *)
let forget t name =
  Option.iter
    (Hashtbl.filter_map_inplace (fun _ loc ->
         if loc.pack = name then None else Some loc))
    t.index;
  match t.writer with
  | Some w when w.name = name -> t.writer <- None
  | _ -> ()

(* Move a whole pack aside.  Only a move this handle made is counted: a
   pack already gone was quarantined or evicted by someone else. *)
let quarantine t name =
  let rec free n =
    let q =
      Filename.concat (quarantine_dir t) (Printf.sprintf "%s.%d" name n)
    in
    if Sys.file_exists q then free (n + 1) else q
  in
  (match Sys.rename (pack_path t name) (free 0) with
  | () -> Atomic.incr t.quarantined
  | exception Sys_error _ -> ());
  forget t name

(* ---- store / find ---- *)

let pack_seq = Atomic.make 0

(* A new, empty pack of this process, created with [O_EXCL]; the
   directory fsync makes its name durable once, for all its records. *)
let new_pack t =
  let rec create () =
    let name =
      Printf.sprintf "%d-%d.pack" (Unix.getpid ())
        (Atomic.fetch_and_add pack_seq 1)
    in
    match
      Unix.openfile (pack_path t name)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
        0o644
    with
    | fd ->
        Unix.close fd;
        name
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> create ()
  in
  let w = { name = create (); size = 0 } in
  Sink.fsync_dir (packs_dir t);
  t.writer <- Some w;
  w

(* Append one record to the handle's pack: one write boundary, one
   fsync.  A pack that vanished (quarantined or evicted) is replaced.  On
   any failure the pack is given up, so a torn record stays its last. *)
let append t record =
  let rec go () =
    let w = match t.writer with Some w -> w | None -> new_pack t in
    match
      Unix.openfile (pack_path t w.name)
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ]
        0
    with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        forget t w.name;
        go ()
    | fd ->
        let oc = Unix.out_channel_of_descr fd in
        (match
           Sink.write oc ~site:("cache-store:" ^ w.name) record;
           Sink.fsync_out oc
         with
        | () -> close_out oc
        | exception e ->
            (* closing flushes whatever prefix the write got out *)
            close_out_noerr oc;
            t.writer <- None;
            raise e);
        let off = w.size in
        w.size <- off + String.length record;
        { pack = w.name; off; len = String.length record }
  in
  go ()

let store (t : t) ~key payload =
  let record = Journal.encode (entry_header ~key payload) ^ "\n" ^ payload in
  Mutex.protect t.lock (fun () ->
      let ix = index t in
      if not (Hashtbl.mem ix key) then begin
        Hashtbl.replace ix key (append t record);
        Atomic.incr t.stores
      end)

(* A record's bytes, read exactly (a channel would fill its whole buffer
   from the pack); [Error] when the pack is shorter than the index says,
   [None] when the pack is gone. *)
let read_record t loc =
  match
    Unix.openfile (pack_path t loc.pack) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
  with
  | exception Unix.Unix_error _ -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let buf = Bytes.create loc.len in
          let rec fill k =
            match Unix.read fd buf k (loc.len - k) with
            | 0 -> k
            | n -> if k + n = loc.len then loc.len else fill (k + n)
          in
          ignore (Unix.lseek fd loc.off Unix.SEEK_SET : int);
          Some
            (if fill 0 = loc.len then Ok (Bytes.unsafe_to_string buf)
             else Error "record truncated"))

(* An entry that fails verification or [decode] quarantines its pack and
   counts as a miss, so the caller's recompute can re-store it. *)
let find_decoded (t : t) ~key decode =
  let miss () =
    Atomic.incr t.misses;
    None
  in
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt (index t) key) with
  | None -> miss ()
  | Some loc -> (
      match read_record t loc with
      | None ->
          Mutex.protect t.lock (fun () -> forget t loc.pack);
          miss ()
      | Some bytes -> (
          match Result.bind (Result.bind bytes (parse_entry ~key)) decode with
          | Ok v ->
              Atomic.incr t.hits;
              Some v
          | Error _reason ->
              Mutex.protect t.lock (fun () -> quarantine t loc.pack);
              miss ()))

let find t ~key = find_decoded t ~key Result.ok

(* A payload is its records' journal lines joined by newlines, so a hit
   hands the caller back exactly the records a recompute would produce. *)
let memo t ~key ~encode ~decode compute =
  let ( let* ) = Result.bind in
  let rec records = function
    | [] -> Ok []
    | line :: rest ->
        let* r = Journal.decode line in
        let* rs = records rest in
        Ok (r :: rs)
  in
  let decode_payload s =
    Result.bind (records (String.split_on_char '\n' s)) decode
  in
  match find_decoded t ~key decode_payload with
  | Some v -> v
  | None ->
      let v = compute () in
      store t ~key (String.concat "\n" (List.map Journal.encode (encode v)));
      v

(* ---- per-run counter log ---- *)

let log_run t ~label =
  let c = counters t in
  let path = log_path t in
  (* a crashed writer may have left a torn tail, which [recover] cuts
     off so this append starts a fresh record (best-effort — the log is
     advisory) *)
  (match Journal.recover ~path ~format:log_format with
  | Ok Journal.Fresh -> Journal.create ~path ~format:log_format []
  | Ok (Journal.Intact _ | Journal.Damaged _) | Error _ -> ());
  Journal.append ~path
    {
      Journal.tag = "run";
      fields =
        [
          ("label", label);
          ("hits", string_of_int c.hits);
          ("misses", string_of_int c.misses);
          ("stores", string_of_int c.stores);
          ("quarantined", string_of_int c.quarantined);
        ];
    }

let pp_counters ppf c =
  Format.fprintf ppf "cache: %d hit%s, %d miss%s, %d stored, %d quarantined"
    c.hits
    (if c.hits = 1 then "" else "s")
    c.misses
    (if c.misses = 1 then "" else "es")
    c.stores c.quarantined

let counters_json c =
  Printf.sprintf
    "{\"cache\":{\"hits\":%d,\"misses\":%d,\"stores\":%d,\"quarantined\":%d}}"
    c.hits c.misses c.stores c.quarantined

(* ---- maintenance: stat / verify / gc ---- *)

(* Every pack's name, size and records; a pack gone meanwhile is left
   out. *)
let walk_packs t =
  List.filter_map
    (fun name ->
      with_pack t name (fun ic ->
          (name, in_channel_length ic, fst (scan_pack ~name ic))))
    (list_packs t)

let list_quarantine t =
  match Sys.readdir (quarantine_dir t) with
  | exception Sys_error _ -> []
  | names -> Array.to_list names |> List.sort compare

type stat = {
  entries : int;
  packs : int;
  bytes : int;
  quarantine : int;
  runs : int;
  total : counters;
}

let stat t =
  let packs = walk_packs t in
  let runs, total =
    match Journal.recover ~path:(log_path t) ~format:log_format with
    | Error _ | Ok (Journal.Fresh | Journal.Damaged _) ->
        (0, { hits = 0; misses = 0; stores = 0; quarantined = 0 })
    | Ok (Journal.Intact records) ->
        List.fold_left
          (fun (n, acc) r ->
            if r.Journal.tag <> "run" then (n, acc)
            else
              let get k =
                Option.bind (Journal.field r k) int_of_string_opt
                |> Option.value ~default:0
              in
              ( n + 1,
                {
                  hits = acc.hits + get "hits";
                  misses = acc.misses + get "misses";
                  stores = acc.stores + get "stores";
                  quarantined = acc.quarantined + get "quarantined";
                } ))
          (0, { hits = 0; misses = 0; stores = 0; quarantined = 0 })
          records
  in
  {
    entries = List.fold_left (fun a (_, _, rs) -> a + List.length rs) 0 packs;
    packs = List.length packs;
    bytes = List.fold_left (fun a (_, size, _) -> a + size) 0 packs;
    quarantine = List.length (list_quarantine t);
    runs;
    total;
  }

type verify_report = {
  checked : int;
  ok : int;
  bad : (string * string) list;
  quarantined_packs : int;
}

(* Re-hash every record of one pack; the failures, each named by its key
   (or, for a header that does not decode, by the pack). *)
let verify_pack t name =
  with_pack t name (fun ic ->
      let records, bad_header = scan_pack ~name ic in
      let checked, failures =
        List.fold_left
          (fun (n, acc) (key, loc) ->
            seek_in ic loc.off;
            match parse_entry ~key (really_input_string ic loc.len) with
            | Ok _ -> (n + 1, acc)
            | Error e -> (n + 1, (key, e) :: acc))
          (0, []) records
      in
      match bad_header with
      | Some e -> (checked + 1, List.rev ((name, e) :: failures))
      | None -> (checked, List.rev failures))
  |> Option.value ~default:(0, [])

let verify (t : t) =
  let moved_before = Atomic.get t.quarantined in
  let checked, bad =
    List.fold_left
      (fun (checked, bad) name ->
        match verify_pack t name with
        | n, [] -> (checked + n, bad)
        | n, failures ->
            Mutex.protect t.lock (fun () -> quarantine t name);
            (checked + n, bad @ failures))
      (0, []) (list_packs t)
  in
  {
    checked;
    ok = checked - List.length bad;
    bad;
    quarantined_packs = Atomic.get t.quarantined - moved_before;
  }

type gc_report = {
  kept : int;
  evicted : int;
  freed_bytes : int;
  purged_quarantine : int;
}

let gc ?max_bytes t =
  let purged_q =
    List.fold_left
      (fun n name ->
        match Sys.remove (Filename.concat (quarantine_dir t) name) with
        | () -> n + 1
        | exception Sys_error _ -> n)
      0 (list_quarantine t)
  in
  let packs =
    List.map
      (fun (name, size, records) ->
        let mtime =
          try (Unix.stat (pack_path t name)).Unix.st_mtime
          with Unix.Unix_error _ -> 0.0
        in
        (mtime, name, size, List.length records))
      (walk_packs t)
  in
  let entries = List.fold_left (fun a (_, _, _, n) -> a + n) 0 packs in
  let total = List.fold_left (fun a (_, _, sz, _) -> a + sz) 0 packs in
  (* oldest packs first until the rest fit the budget *)
  let rec evict budget remaining (evicted, freed) = function
    | (_, name, sz, n) :: rest when remaining > budget -> (
        match Sys.remove (pack_path t name) with
        | () ->
            Mutex.protect t.lock (fun () -> forget t name);
            evict budget (remaining - sz) (evicted + n, freed + sz) rest
        | exception Sys_error _ -> evict budget remaining (evicted, freed) rest)
    | _ -> (evicted, freed)
  in
  let evicted, freed =
    match max_bytes with
    | None -> (0, 0)
    | Some budget -> evict budget total (0, 0) (List.sort compare packs)
  in
  {
    kept = entries - evicted;
    evicted;
    freed_bytes = freed;
    purged_quarantine = purged_q;
  }
