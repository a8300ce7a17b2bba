(* Crash-consistent content-addressed result store.

   An entry is keyed by the MD5 of a canonical journal-encoded record of
   everything that determines the result (kernel spec, machine, fault
   plan, harness config, cache format version) and lives at
   [objects/<k0k1>/<key>].  The file is self-verifying: a header line
   carrying the format version, its own key, the payload length and the
   payload MD5, followed by the raw payload bytes.  Publication is
   two-phase — write a private tmp file, fsync, rename into place, fsync
   the directory — so a reader can never observe a torn entry under the
   final name.  Any entry that fails verification (truncated, bit-flipped,
   wrong key) is moved to [quarantine/] and reported as a miss: the cache
   may lose work, never invent it. *)

module Journal = Macs_util.Journal
module Sink = Macs_util.Sink

let format_version = 2
let entry_tag = "macs-cache-entry"
let log_format = "macs-cache-log"

type t = {
  dir : string;
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

let objects_dir t = Filename.concat t.dir "objects"
let quarantine_dir t = Filename.concat t.dir "quarantine"
let log_path t = Filename.concat t.dir "cache.log"

let open_dir dir =
  let t =
    {
      dir;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      stores = Atomic.make 0;
      quarantined = Atomic.make 0;
    }
  in
  mkdir_p (objects_dir t);
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

let entry_path t key =
  Filename.concat
    (Filename.concat (objects_dir t) (String.sub key 0 2))
    key

(* ---- entry codec ---- *)

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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- quarantine ---- *)

let quarantine_move (t : t) ~key path =
  let rec free n =
    let q = Filename.concat (quarantine_dir t) (Printf.sprintf "%s.%d" key n) in
    if Sys.file_exists q then free (n + 1) else q
  in
  (try Sys.rename path (free 0) with Sys_error _ -> ());
  Atomic.incr t.quarantined

(* ---- store / find ---- *)

let store (t : t) ~key payload =
  let path = entry_path t key in
  if Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    (* tmp name is private to this domain so concurrent stores of the
       same (deterministic) entry cannot interleave *)
    let tmp =
      Printf.sprintf "%s.tmp.%d" path (Domain.self () :> int)
    in
    let bytes = Journal.encode (entry_header ~key payload) ^ "\n" ^ payload in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Sink.write oc ~site:("cache-store:" ^ key) bytes;
        Sink.fsync_out oc);
    Sink.rename ~site:("cache-publish:" ^ key) tmp path;
    Sink.fsync_dir (Filename.dirname path);
    Atomic.incr t.stores
  end

(* An entry that fails verification or [decode] is quarantined and
   counted as a miss, so the caller's recompute can re-store it. *)
let find_decoded (t : t) ~key decode =
  let path = entry_path t key in
  let miss () =
    Atomic.incr t.misses;
    None
  in
  if not (Sys.file_exists path) then miss ()
  else
    match Result.bind (parse_entry ~key (read_file path)) decode with
    | Ok v ->
        Atomic.incr t.hits;
        Some v
    | Error _reason ->
        quarantine_move t ~key path;
        miss ()

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

let list_entries t =
  let objects = objects_dir t in
  match Sys.readdir objects with
  | exception Sys_error _ -> []
  | fans ->
      Array.to_list fans
      |> List.sort compare
      |> List.concat_map (fun fan ->
             let fan_dir = Filename.concat objects fan in
             if not (Sys.is_directory fan_dir) then []
             else
               match Sys.readdir fan_dir with
               | exception Sys_error _ -> []
               | names ->
                   Array.to_list names |> List.sort compare
                   |> List.filter_map (fun name ->
                          (* skip orphaned tmp files from crashed stores *)
                          if String.length name = 32
                             && String.for_all
                                  (function
                                    | '0' .. '9' | 'a' .. 'f' -> true
                                    | _ -> false)
                                  name
                          then Some (name, Filename.concat fan_dir name)
                          else None))

let list_quarantine t =
  match Sys.readdir (quarantine_dir t) with
  | exception Sys_error _ -> []
  | names -> Array.to_list names |> List.sort compare

let list_tmp t =
  let objects = objects_dir t in
  match Sys.readdir objects with
  | exception Sys_error _ -> []
  | fans ->
      Array.to_list fans
      |> List.concat_map (fun fan ->
             let fan_dir = Filename.concat objects fan in
             if not (Sys.is_directory fan_dir) then []
             else
               match Sys.readdir fan_dir with
               | exception Sys_error _ -> []
               | names ->
                   Array.to_list names
                   |> List.filter_map (fun name ->
                          (* <32-hex>.tmp.<domain id> *)
                          if String.length name > 37
                             && String.sub name 32 5 = ".tmp."
                          then Some (Filename.concat fan_dir name)
                          else None))

type stat = {
  entries : int;
  bytes : int;
  quarantine : int;
  runs : int;
  total : counters;
}

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let stat t =
  let entries = list_entries t in
  let bytes = List.fold_left (fun a (_, p) -> a + file_size p) 0 entries in
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
    entries = List.length entries;
    bytes;
    quarantine = List.length (list_quarantine t);
    runs;
    total;
  }

type verify_report = {
  checked : int;
  ok : int;
  bad : (string * string) list;  (** key, reason — already quarantined *)
}

let verify t =
  let entries = list_entries t in
  let ok = ref 0 and bad = ref [] in
  List.iter
    (fun (key, path) ->
      match parse_entry ~key (read_file path) with
      | Ok _ -> incr ok
      | Error reason ->
          quarantine_move t ~key path;
          bad := (key, reason) :: !bad)
    entries;
  { checked = List.length entries; ok = !ok; bad = List.rev !bad }

type gc_report = {
  kept : int;
  evicted : int;
  freed_bytes : int;
  purged_quarantine : int;
  purged_tmp : int;
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
  let purged_tmp =
    List.fold_left
      (fun n path ->
        match Sys.remove path with
        | () -> n + 1
        | exception Sys_error _ -> n)
      0 (list_tmp t)
  in
  let entries =
    List.map
      (fun (key, path) ->
        let st =
          try Some (Unix.stat path) with Unix.Unix_error _ -> None
        in
        ( key,
          path,
          (match st with Some s -> s.Unix.st_mtime | None -> 0.0),
          match st with Some s -> s.Unix.st_size | None -> 0 ))
      (list_entries t)
  in
  let total = List.fold_left (fun a (_, _, _, sz) -> a + sz) 0 entries in
  match max_bytes with
  | None ->
      {
        kept = List.length entries;
        evicted = 0;
        freed_bytes = 0;
        purged_quarantine = purged_q;
        purged_tmp;
      }
  | Some budget ->
      (* oldest first until under budget *)
      let by_age =
        List.sort (fun (_, _, a, _) (_, _, b, _) -> compare a b) entries
      in
      let rec evict remaining acc = function
        | [] -> acc
        | (_, path, _, sz) :: rest when remaining > budget ->
            let removed =
              match Sys.remove path with
              | () -> true
              | exception Sys_error _ -> false
            in
            if removed then
              evict (remaining - sz) ((1, sz) :: acc) rest
            else evict remaining acc rest
        | _ -> acc
      in
      let evictions = evict total [] by_age in
      let evicted = List.length evictions in
      let freed = List.fold_left (fun a (_, sz) -> a + sz) 0 evictions in
      {
        kept = List.length entries - evicted;
        evicted;
        freed_bytes = freed;
        purged_quarantine = purged_q;
        purged_tmp;
      }
