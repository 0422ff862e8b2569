type t = {
  scheme : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  day : int;
  epoch : int;
      (* generation of the serving epoch this checkpoint commits; 0
         when concurrent serving is off (and in pre-epoch manifests) *)
  slots : Dayset.t list;
}

let capture s =
  let env = Scheme.env s in
  let frame = Scheme.frame s in
  {
    scheme = Scheme.kind s;
    technique = env.Env.technique;
    w = env.Env.w;
    n = env.Env.n;
    day = Scheme.current_day s;
    epoch =
      (match Wave_epoch.Epoch.current env.Env.disk with
      | Some e -> Wave_epoch.Epoch.gen e
      | None -> 0);
    slots =
      List.init (Frame.n frame) (fun i -> Frame.slot_days frame (i + 1));
  }

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "wave-manifest v1\n";
  Printf.bprintf buf "scheme %s\n" (Scheme.name t.scheme);
  Printf.bprintf buf "technique %s\n" (Env.technique_name t.technique);
  Printf.bprintf buf "w %d\n" t.w;
  Printf.bprintf buf "n %d\n" t.n;
  Printf.bprintf buf "day %d\n" t.day;
  (* Written only when epochs are on, so manifests from stop-the-world
     runs stay byte-identical to the pre-epoch format. *)
  if t.epoch <> 0 then Printf.bprintf buf "epoch %d\n" t.epoch;
  List.iteri
    (fun i ds ->
      Printf.bprintf buf "slot %d %s\n" (i + 1)
        (String.concat "," (List.map string_of_int (Dayset.elements ds))))
    t.slots;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let err m = Error m in
  match lines with
  | header :: rest when header = "wave-manifest v1" -> (
    let field name =
      List.find_map
        (fun l ->
          let prefix = name ^ " " in
          if String.starts_with ~prefix l then
            Some (String.sub l (String.length prefix)
                    (String.length l - String.length prefix))
          else None)
        rest
    in
    let int_field name =
      match field name with
      | None -> Error (Printf.sprintf "missing field %s" name)
      | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "bad integer for %s" name))
    in
    (* Absent in pre-epoch manifests: default 0 (stop-the-world). *)
    let epoch_field =
      match field "epoch" with
      | None -> Ok 0
      | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some i -> Ok i
        | None -> Error "bad integer for epoch")
    in
    match (field "scheme", field "technique", int_field "w", int_field "n",
           int_field "day", epoch_field) with
    | Some sch, Some tech, Ok w, Ok n, Ok day, Ok epoch -> (
      match (Scheme.of_name sch, Env.technique_of_name (String.trim tech)) with
      | Some scheme, Some technique -> (
        let slots =
          List.filter_map
            (fun l ->
              if String.starts_with ~prefix:"slot " l then
                match String.split_on_char ' ' l with
                | [ _; _; days ] ->
                  let parsed =
                    if days = "" then Some Dayset.empty
                    else
                      String.split_on_char ',' days
                      |> List.map int_of_string_opt
                      |> List.fold_left
                           (fun acc d ->
                             match (acc, d) with
                             | Some s, Some d -> Some (Dayset.add d s)
                             | _ -> None)
                           (Some Dayset.empty)
                  in
                  Some parsed
                | [ _; _ ] -> Some (Some Dayset.empty)
                | _ -> Some None
              else None)
            rest
        in
        if List.exists Option.is_none slots then err "malformed slot line"
        else
          let slots = List.map Option.get slots in
          if List.length slots <> n then err "slot count does not match n"
          else Ok { scheme; technique; w; n; day; epoch; slots })
      | None, _ -> err "unknown scheme"
      | _, None -> err "unknown technique")
    | None, _, _, _, _, _ -> err "missing field scheme"
    | _, None, _, _, _, _ -> err "missing field technique"
    | _, _, (Error _ as e), _, _, _ -> e
    | _, _, _, (Error _ as e), _, _ -> e
    | _, _, _, _, (Error _ as e), _ -> e
    | _, _, _, _, _, (Error _ as e) -> e)
  | _ -> err "bad or missing manifest header"
