module J = Macs_util.Journal

let format = "macs-serve-session"

type t = {
  path : string;
  mutex : Mutex.t;
  (* frame key -> (client id, completed reply line) *)
  frames : (string, string * string) Hashtbl.t;
  (* (frame key, item index) -> reply-item JSON *)
  items : (string * int, string) Hashtbl.t;
}

let frame_key ~id ~payload =
  Digest.to_hex (Digest.string (String.concat "\x00" [ id; payload ]))

let config_record = { J.tag = "config"; fields = [ ("protocol", "1") ] }

let load_record t (r : J.record) =
  match r.J.tag with
  | "item" -> (
      match (J.field r "key", Option.bind (J.field r "index") J.get_int) with
      | Some key, Some index -> (
          match J.field r "data" with
          | Some data -> Hashtbl.replace t.items (key, index) data
          | None -> ())
      | _ -> ())
  | "frame" -> (
      match (J.field r "key", J.field r "data") with
      | Some key, Some data ->
          let id = Option.value ~default:"" (J.field r "id") in
          Hashtbl.replace t.frames key (id, data)
      | _ -> ())
  | _ -> ()

let open_ path =
  let session ~frames ~items =
    {
      path;
      mutex = Mutex.create ();
      frames = Hashtbl.create frames;
      items = Hashtbl.create items;
    }
  in
  match J.recover ~path ~format with
  | Error why -> Error why
  | Ok (J.Damaged why) ->
      Error
        (Printf.sprintf
           "session journal %s is not a macs-serve session (%s); refusing to \
            overwrite it"
           path why)
  | Ok J.Fresh ->
      J.create ~path ~format [ config_record ];
      Ok (session ~frames:64 ~items:64)
  | Ok (J.Intact records) ->
      (* the previous server may have died holding a torn final line,
         which [recover] has cut off *)
      let count tag =
        List.fold_left (fun n r -> if r.J.tag = tag then n + 1 else n) 0 records
      in
      let t = session ~frames:(count "frame") ~items:(count "item") in
      List.iter (load_record t) records;
      Ok t

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let lookup_frame t ~key =
  locked t (fun () -> Option.map snd (Hashtbl.find_opt t.frames key))

let lookup_item t ~key ~index =
  locked t (fun () -> Hashtbl.find_opt t.items (key, index))

let item_record ~key ~index data =
  {
    J.tag = "item";
    fields = [ ("key", key); ("index", J.put_int index); ("data", data) ];
  }

let frame_record ~key ~id data =
  { J.tag = "frame"; fields = [ ("key", key); ("id", id); ("data", data) ] }

let record_item t ~key ~index data =
  locked t (fun () ->
      J.append ~path:t.path (item_record ~key ~index data);
      Hashtbl.replace t.items (key, index) data)

let record_frame t ~key ~id data =
  locked t (fun () ->
      J.append ~path:t.path (frame_record ~key ~id data);
      Hashtbl.replace t.frames key (id, data))

let items_done t ~key =
  locked t (fun () ->
      Hashtbl.fold
        (fun (k, _) _ n -> if k = key then n + 1 else n)
        t.items 0)

(* Canonical order: every frame key ascending; within a key, item
   records by index, then the frame record.  Two sessions that served
   the same set of frames — regardless of connection interleaving,
   pipelining, or how many times a dup was coalesced — compact to
   byte-identical journals, which is what lets the chaos rung compare a
   multi-client storm's journal against a solo run's. *)
let compact t =
  locked t (fun () ->
      let items_by_key = Hashtbl.create 64 in
      Hashtbl.iter
        (fun (key, index) data ->
          let prior =
            Option.value ~default:[] (Hashtbl.find_opt items_by_key key)
          in
          Hashtbl.replace items_by_key key ((index, data) :: prior))
        t.items;
      let keys = Hashtbl.create 64 in
      Hashtbl.iter (fun (key, _) _ -> Hashtbl.replace keys key ()) t.items;
      Hashtbl.iter (fun key _ -> Hashtbl.replace keys key ()) t.frames;
      let sorted_keys =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])
      in
      let records =
        List.concat_map
          (fun key ->
            let items =
              List.sort compare
                (Option.value ~default:[]
                   (Hashtbl.find_opt items_by_key key))
            in
            List.map
              (fun (index, data) -> item_record ~key ~index data)
              items
            @
            match Hashtbl.find_opt t.frames key with
            | Some (id, data) -> [ frame_record ~key ~id data ]
            | None -> [])
          sorted_keys
      in
      J.write_atomic ~path:t.path ~format (config_record :: records))
