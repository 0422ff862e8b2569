open Wave_storage

exception Deletes_not_supported of string

let require_deletes env op =
  if (not env.Env.allow_deletes) && env.Env.technique <> Env.Packed_shadow then
    raise
      (Deletes_not_supported
         (Printf.sprintf
            "%s needs incremental deletion, but the index package does not              support deletes (use packed shadowing or a rebuild/throw-away              scheme)"
            op))

let fetch env days = List.map env.Env.store days

(* One span per paper-level wave operation (BuildIndex / AddToIndex /
   DeleteFromIndex), tagged with the technique and the day count.  The
   tag list is only built when tracing is on. *)
let op_span env name days f =
  if Wave_obs.Trace.is_enabled () then
    Wave_obs.Trace.with_span name
      ~tags:
        [
          ("technique", Env.technique_name env.Env.technique);
          ("days", string_of_int (List.length days));
        ]
      f
  else f ()

(* Every operation is reported to [Env.observer] (the analytic model's
   replay) behind one match: with no observer the day counts are never
   taken. *)
let day_count idx = List.length (Index.days idx)
let expiring idx expire =
  List.length (List.filter (fun d -> List.mem d expire) (Index.days idx))

(* Technique barrier for write-back pools: the moment a shadow replaces
   the old constituent (the old index is dropped), the shadow is the
   only copy — its deferred bucket writes must be on disk first.  This
   is where a shadow build's coalesced rewrites are charged; for
   write-through or uncached runs it is a no-op. *)
let flush_barrier env =
  match Wave_cache.Cache.find env.Env.disk with
  | Some pool -> Wave_cache.Cache.flush pool
  | None -> ()

let build_days env days =
  (match env.Env.observer with Some f -> f (Env.Build (List.length days)) | None -> ());
  op_span env "BuildIndex" days (fun () ->
      Index.build env.Env.disk env.Env.icfg (fetch env days))

let add_in_place env idx days =
  (match env.Env.observer with Some f -> f (Env.Add (List.length days)) | None -> ());
  List.iter (fun b -> Index.add_batch idx b) (fetch env days);
  idx

(* [SMCP]: stream [idx] minus the [expire] days plus the new days into
   a fresh packed index, which replaces [idx]. *)
let smart_copy env ~live idx ~expire days =
  (match env.Env.observer with
  | Some f -> f (Env.Smart_copy { days = day_count idx; add = List.length days; live })
  | None -> ());
  let expire = fetch env expire in
  let fresh = Index.pack idx ~expire ~extra:(fetch env days) in
  flush_barrier env;
  Index.drop idx;
  fresh

let add_days env idx days =
  op_span env "AddToIndex" days @@ fun () ->
  match env.Env.technique with
  | Env.In_place -> add_in_place env idx days
  | Env.Simple_shadow ->
    (match env.Env.observer with
    | Some f -> f (Env.Copy { days = day_count idx; live = true })
    | None -> ());
    let shadow = add_in_place env (Index.copy idx) days in
    flush_barrier env;
    Index.drop idx;
    shadow
  | Env.Packed_shadow -> smart_copy env ~live:true idx ~expire:[] days

let copy env idx =
  (match env.Env.observer with
  | Some f -> f (Env.Copy { days = day_count idx; live = false })
  | None -> ());
  Index.copy idx

let add_days_fresh env idx days =
  op_span env "AddToIndex" days @@ fun () ->
  match env.Env.technique with
  | Env.In_place | Env.Simple_shadow -> add_in_place env idx days
  | Env.Packed_shadow -> smart_copy env ~live:false idx ~expire:[] days

type pending = {
  old_idx : Index.t;
  staged : Index.t option; (* None: work deferred to completion (packed shadow) *)
  expire : int list;
}

let prepare_replace env idx ~expire =
  require_deletes env "DeleteFromIndex";
  op_span env "DeleteFromIndex" [] @@ fun () ->
  match env.Env.technique with
  | Env.In_place ->
    (match env.Env.observer with
    | Some f -> f (Env.Delete (expiring idx expire))
    | None -> ());
    ignore (Index.delete_days idx (fetch env expire));
    { old_idx = idx; staged = Some idx; expire }
  | Env.Simple_shadow ->
    (match env.Env.observer with
    | Some f ->
      f (Env.Copy { days = day_count idx; live = true });
      f (Env.Delete (expiring idx expire))
    | None -> ());
    let shadow = Index.copy idx in
    ignore (Index.delete_days shadow (fetch env expire));
    { old_idx = idx; staged = Some shadow; expire }
  | Env.Packed_shadow -> { old_idx = idx; staged = None; expire }

let prepare_add env idx =
  (* No expiry: skip the legacy-deletes guard and the delete pass. *)
  match env.Env.technique with
  | Env.In_place -> { old_idx = idx; staged = Some idx; expire = [] }
  | Env.Simple_shadow ->
    (match env.Env.observer with
    | Some f -> f (Env.Copy { days = day_count idx; live = true })
    | None -> ());
    { old_idx = idx; staged = Some (Index.copy idx); expire = [] }
  | Env.Packed_shadow -> { old_idx = idx; staged = None; expire = [] }

let complete_replace env p ~add =
  op_span env "AddToIndex" add @@ fun () ->
  match p.staged with
  | Some staged ->
    let staged = add_in_place env staged add in
    if staged != p.old_idx then begin
      flush_barrier env;
      Index.drop p.old_idx
    end;
    staged
  | None -> smart_copy env ~live:true p.old_idx ~expire:p.expire add
