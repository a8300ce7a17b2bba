(* Fault-tolerant work distribution over OCaml 5 domains.

   Cells are claimed from an atomic counter (work stealing degenerates to
   claim-next since every cell is independent); results land in a plain
   array at distinct indices, with [Domain.join] as the happens-before
   edge before the coordinator reads them.  Robustness decisions live
   here so the suite/fuzz/chaos harnesses share one contract:

   - exception barrier per cell (quarantine, never sink the run);
   - deterministic retry/backoff for [Transient] failures;
   - [Worker_killed] retires the worker, the coordinator backstop
     finishes anything left unclaimed if every worker dies;
   - [jobs = 1] replays the historical sequential journaling byte for
     byte; [jobs > 1] journals via per-worker shards and a final
     canonical rewrite in cell-index order. *)

module Journal = Macs_util.Journal

exception Transient of string
exception Worker_killed of string

type retry = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  seed : int;
}

let default_retry =
  { max_attempts = 3; base_delay_s = 0.005; max_delay_s = 0.25; seed = 0 }

let backoff_delay ~retry ~index ~attempt =
  let attempt = max 1 attempt in
  let expo = retry.base_delay_s *. (2.0 ** float_of_int (attempt - 1)) in
  let rand = Random.State.make [| retry.seed; index; attempt; 0xB0FF |] in
  let jitter = 1.0 +. Random.State.float rand 0.5 in
  Float.min retry.max_delay_s (expo *. jitter)

type poison = {
  index : int;
  attempts : int;
  error : string;
  context : string;
}

type 'r outcome = Done of 'r | Poisoned of poison

let poison_record p =
  {
    Journal.tag = "poison";
    fields =
      [
        ("index", Journal.put_int p.index);
        ("attempts", Journal.put_int p.attempts);
        ("error", p.error);
        ("context", p.context);
      ];
  }

let ( let* ) = Result.bind

let poison_of_record r =
  if r.Journal.tag <> "poison" then
    Error (Printf.sprintf "expected a poison record, got %S" r.Journal.tag)
  else
    let* index = Journal.field_err r "index" in
    let* attempts = Journal.field_err r "attempts" in
    let* error = Journal.field_err r "error" in
    let* context = Journal.field_err r "context" in
    match (Journal.get_int index, Journal.get_int attempts) with
    | Some index, Some attempts -> Ok { index; attempts; error; context }
    | _ -> Error "poison record: non-integer index or attempts"

type 'r journal = {
  path : string;
  format : string;
  config : Journal.record;
  config_ok : Journal.record -> (unit, string) result;
  index_of : Journal.record -> int option;
  records_of : int -> 'r -> Journal.record list;
  of_records : Journal.record list -> ('r, string) result;
}

type stats = {
  jobs : int;
  executed : int;
  replayed : int;
  retried : int;
  quarantined : int;
  lost_workers : int;
  stopped_early : bool;
}

let records_of_outcome j i = function
  | Done r -> j.records_of i r
  | Poisoned p -> [ poison_record p ]

(* The engine behind [run] and [run_journaled]: [results] arrives
   holding the replayed outcomes, and a [journal] already holds their
   records. *)
let execute ~jobs ~retry ~journal ~sharded ~context ~progress ~should_stop
    ~cells ~results f =
  let jobs = max 1 (min jobs (max 1 cells)) in
  let replayed =
    Array.fold_left (fun n o -> if Option.is_some o then n + 1 else n) 0 results
  in
  let shard_mode = jobs > 1 || sharded in
  let retried = Atomic.make 0 in
  let executed = Atomic.make 0 in
  let quarantined = Atomic.make 0 in
  let lost = Atomic.make 0 in
  let stopped = Atomic.make false in
  let mutex = Mutex.create () in
  let locked fn =
    Mutex.lock mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock mutex) fn
  in
  let note o =
    (match o with Poisoned _ -> Atomic.incr quarantined | Done _ -> ());
    Atomic.incr executed
  in
  (* exception barrier: one cell, bounded retry, typed outcome; the
     second component is true when the cell was lethal to its worker *)
  let run_cell i =
    let rec attempt n =
      match f i with
      | r -> (Done r, false)
      | exception Transient msg ->
          if n < retry.max_attempts then begin
            Atomic.incr retried;
            Unix.sleepf (backoff_delay ~retry ~index:i ~attempt:n);
            attempt (n + 1)
          end
          else
            ( Poisoned
                {
                  index = i;
                  attempts = n;
                  error = "transient failure persisted: " ^ msg;
                  context = context i;
                },
              false )
      (* a simulated process death is not a cell failure: it must tear
         through every barrier, never quarantine *)
      | exception (Macs_util.Sink.Crashed _ as c) -> raise c
      | exception Worker_killed msg ->
          ( Poisoned
              {
                index = i;
                attempts = n;
                error = "worker killed: " ^ msg;
                context = context i;
              },
            true )
      | exception e ->
          ( Poisoned
              {
                index = i;
                attempts = n;
                error = Printexc.to_string e;
                context = context i;
              },
            false )
    in
    attempt 1
  in
  (* per-worker shard sink, created lazily so a worker that never
     completes a cell leaves no shard file behind *)
  let shard_sink w =
    let started = ref false in
    fun i o ->
      match journal with
      | None -> ()
      | Some j ->
          if not !started then begin
            Journal.shard_start ~path:j.path ~shard:w ~format:j.format
              ~config:j.config;
            started := true
          end;
          List.iteri
            (fun seq r ->
              Journal.shard_append ~path:j.path ~shard:w ~index:i ~seq r)
            (records_of_outcome j i o)
  in
  (if shard_mode then begin
     let next = Atomic.make 0 in
     let rec claim () =
       let i = Atomic.fetch_and_add next 1 in
       if i >= cells then None
       else match results.(i) with Some _ -> claim () | None -> Some i
     in
     let worker w =
       let sink = shard_sink w in
       let rec loop () =
         if should_stop () then Atomic.set stopped true
         else
           match claim () with
           | None -> ()
           | Some i ->
               locked (fun () -> progress i);
               let o, lethal = run_cell i in
               results.(i) <- Some o;
               note o;
               sink i o;
               if lethal then Atomic.incr lost else loop ()
       in
       try loop () with
       | Macs_util.Sink.Crashed _ as c -> raise c
       | _ -> Atomic.incr lost
     in
     if jobs > 1 then begin
       let doms = List.init jobs (fun w -> Domain.spawn (fun () -> worker w)) in
       List.iter Domain.join doms
     end
     else worker 0;
     (* backstop: if lethal cells (or worker crashes) retired every
        worker before the claim counter drained, the coordinator finishes
        the leftovers itself — degraded, not aborted *)
     let sink = shard_sink jobs in
     for i = 0 to cells - 1 do
       match results.(i) with
       | Some _ -> ()
       | None ->
           if Atomic.get stopped || should_stop () then Atomic.set stopped true
           else begin
             progress i;
             let o, _ = run_cell i in
             results.(i) <- Some o;
             note o;
             sink i o
           end
     done;
     (* canonical rewrite: main journal becomes header, config, then every
        completed cell's records in index order — the bytes a sequential
        run would have written — and the shards disappear *)
     match journal with
     | Some j when Atomic.get executed > 0 ->
         let body =
           List.concat
             (List.init cells (fun i ->
                  match results.(i) with
                  | Some o -> records_of_outcome j i o
                  | None -> []))
         in
         Journal.write_atomic ~path:j.path ~format:j.format (j.config :: body);
         Journal.remove_shards ~path:j.path
     | _ -> ()
   end
   else begin
     (* sequential append mode: the historical byte-identical path *)
     let i = ref 0 in
     let continue_ = ref true in
     while !continue_ && !i < cells do
       (match results.(!i) with
       | Some _ -> ()
       | None ->
           if should_stop () then begin
             Atomic.set stopped true;
             continue_ := false
           end
           else begin
             progress !i;
             let o, _ = run_cell !i in
             results.(!i) <- Some o;
             note o;
             match journal with
             | None -> ()
             | Some j ->
                 List.iter
                   (fun r -> Journal.append ~path:j.path r)
                   (records_of_outcome j !i o)
           end);
       if !continue_ then incr i
     done
   end);
  ( results,
    {
      jobs;
      executed = Atomic.get executed;
      replayed;
      retried = Atomic.get retried;
      quarantined = Atomic.get quarantined;
      lost_workers = Atomic.get lost;
      stopped_early = Atomic.get stopped;
    } )

let run ?(jobs = 1) ?(retry = default_retry) ?(already = fun _ -> None)
    ?(context = fun i -> Printf.sprintf "cell %d" i) ?(progress = fun _ -> ())
    ?(should_stop = fun () -> false) ~cells f =
  execute ~jobs ~retry ~journal:None ~sharded:false ~context ~progress
    ~should_stop ~cells
    ~results:(Array.init (max cells 0) already)
    f

(* Resume: fold any shards a killed parallel run left behind into the
   main journal, then decode each cell block — a lone [poison] record is
   a quarantined cell, any other block goes through the caller's codec.
   Returns the journal's own config record (its bytes survive), the
   replayed outcomes, and whether shards were merged; [None] for a
   [Fresh] main journal. *)
let load j ~cells =
  let index_of r =
    if r.Journal.tag = "poison" then
      Option.bind (Journal.field r "index") Journal.get_int
    else j.index_of r
  in
  let merged = Journal.shards ~path:j.path <> [] in
  let* main =
    Journal.merge_shards ~path:j.path ~format:j.format ~config_ok:j.config_ok
      ~index_of
  in
  match main with
  | None -> Ok None
  | Some (config, blocks) ->
      let* prior =
        List.fold_left
          (fun acc (i, records) ->
            let* acc = acc in
            if i < 0 || i >= cells then
              Error
                (Printf.sprintf "journal %s: cell %d outside the run's [0, %d)"
                   j.path i cells)
            else
              let* o =
                match records with
                | [ ({ Journal.tag = "poison"; _ } as r) ] ->
                    Result.map (fun p -> Poisoned p) (poison_of_record r)
                | rs -> Result.map (fun r -> Done r) (j.of_records rs)
              in
              Ok ((i, o) :: acc))
          (Ok []) blocks
      in
      Ok (Some (config, List.rev prior, merged))

let run_journaled ?(jobs = 1) ?(resume = false)
    ?(keep = fun _ -> true) ?(sharded = false)
    ?(context = fun i -> Printf.sprintf "cell %d" i) ?(progress = fun _ -> ())
    ?(should_stop = fun () -> false) ~journal:j ~cells f =
  (* a [Fresh] file — missing, empty, or an interrupted create — never
     received a cell, so resuming into it is starting over *)
  let* resumed = if resume then load j ~cells else Ok None in
  let* j, prior, rewrite =
    match resumed with
    | Some (config, prior, merged) ->
        let j = { j with config } in
        let kept = List.filter (fun (_, o) -> keep o) prior in
        let dropped = List.length kept < List.length prior in
        (* dropped cells leave gaps that sequential appends would fill out
           of index order: rewrite them away now and finish sharded, whose
           final rewrite is canonical *)
        if dropped then
          Journal.write_atomic ~path:j.path ~format:j.format
            (config
            :: List.concat_map (fun (i, o) -> records_of_outcome j i o) kept);
        Ok (j, kept, merged || dropped)
    | None ->
        Journal.remove_shards ~path:j.path;
        Journal.create ~path:j.path ~format:j.format [ j.config ];
        Ok (j, [], false)
  in
  let results = Array.make (max cells 0) None in
  List.iter (fun (i, o) -> results.(i) <- Some o) prior;
  Ok
    (execute ~jobs ~retry:default_retry ~journal:(Some j)
       ~sharded:(sharded || rewrite) ~context ~progress ~should_stop ~cells
       ~results f)
