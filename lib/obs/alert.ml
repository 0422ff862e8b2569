type comparator = Gt | Ge | Lt | Le
type scope = Day | Transition
type stat = Value | Mean | Min | Max | P50 | P95 | P99 | Count
type debounce = { stat : stat; for_days : int; scope : scope }

type burn = {
  goal : float;
  window_days : int;
  fast_days : int;
  slow_days : int;
  burn_threshold : float;
}

type window = Debounce of debounce | Burn of burn

type rule = {
  name : string;
  metric : string;
  comparator : comparator;
  threshold : float;
  window : window;
}

let check_names who name metric =
  if String.length name = 0 then invalid_arg (who ^ ": empty name");
  if String.length metric = 0 then invalid_arg (who ^ ": empty metric")

let rule ?(stat = Value) ?(for_days = 1) ?(scope = Day) ~name ~metric comparator
    threshold =
  if for_days < 1 then invalid_arg "Alert.rule: for_days < 1";
  check_names "Alert.rule" name metric;
  { name; metric; comparator; threshold; window = Debounce { stat; for_days; scope } }

let burn ?(goal = 0.99) ?fast_days ?slow_days ?(burn_threshold = 1.0) ~name
    ~metric ~window_days comparator threshold =
  check_names "Alert.burn" name metric;
  if window_days < 1 then invalid_arg "Alert.burn: window_days < 1";
  if not (goal >= 0.0 && goal < 1.0) then
    invalid_arg "Alert.burn: goal outside [0, 1)";
  if not (burn_threshold > 0.0) then
    invalid_arg "Alert.burn: non-positive burn_threshold";
  let fast = Option.value ~default:(max 1 (window_days / 8)) fast_days in
  let slow = Option.value ~default:(max fast (window_days / 2)) slow_days in
  if not (1 <= fast && fast <= slow && slow <= window_days) then
    invalid_arg "Alert.burn: need 1 <= fast_days <= slow_days <= window_days";
  {
    name;
    metric;
    comparator;
    threshold;
    window =
      Burn { goal; window_days; fast_days = fast; slow_days = slow; burn_threshold };
  }

type event = {
  e_rule : rule;
  fired_day : int;
  value : float;
  mutable last_day : int;
  mutable resolved_day : int option;
}

(* Per-rule episode state: [streak] counts consecutive satisfied
   evaluations; [current] is the open event while the rule is firing. *)
type state = { s_rule : rule; mutable streak : int; mutable current : event option }

type t = { states : state list; mutable history : event list (* newest first *) }

let create rules =
  { states = List.map (fun r -> { s_rule = r; streak = 0; current = None }) rules;
    history = [] }

let comparator_name = function Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="
let scope_name = function Day -> "day" | Transition -> "transition"
let scopes = [ Day; Transition ]
let stats = [ Value; Mean; Min; Max; P50; P95; P99; Count ]

let stat_name = function
  | Value -> "value"
  | Mean -> "mean"
  | Min -> "min"
  | Max -> "max"
  | P50 -> "p50"
  | P95 -> "p95"
  | P99 -> "p99"
  | Count -> "count"

let needs_series r = match r.window with Burn _ -> true | Debounce _ -> false

let kind_name r =
  match r.window with Debounce d -> scope_name d.scope | Burn _ -> "slo"

let holds cmp v threshold =
  match cmp with
  | Gt -> v > threshold
  | Ge -> v >= threshold
  | Lt -> v < threshold
  | Le -> v <= threshold

(* Resolve a debounce rule's stat against the registry.  [None] —
   metric missing, histogram empty, or stat inapplicable to the
   metric's kind — counts as not satisfied. *)
let resolve ?registry metric stat =
  match Metrics.lookup ?registry metric with
  | None -> None
  | Some (`Counter v) | Some (`Gauge v) -> (
    match stat with Value -> Some v | _ -> None)
  | Some (`Histogram None) -> None
  | Some (`Histogram (Some s)) -> (
    match stat with
    | Value | Mean -> Some s.Metrics.mean
    | Min -> Some s.Metrics.min
    | Max -> Some s.Metrics.max
    | P50 -> Some s.Metrics.p50
    | P95 -> Some s.Metrics.p95
    | P99 -> Some s.Metrics.p99
    | Count -> Some (float_of_int s.Metrics.count))

let burn_rate series r ~window =
  match r.window with
  | Debounce _ -> invalid_arg "Alert.burn_rate: not a burn-rate rule"
  | Burn b ->
    let days = Series.daily series r.metric in
    let have = List.length days in
    if have < window || window < 1 then None
    else
      let bad =
        List.filteri
          (fun i p ->
            i >= have - window && holds r.comparator p.Series.value r.threshold)
          days
      in
      Some
        (float_of_int (List.length bad) /. float_of_int window /. (1.0 -. b.goal))

(* The value a rule breaches with, or [None] when its condition does
   not hold this evaluation. *)
let breach ?registry ?series r =
  match r.window with
  | Debounce d -> (
    match resolve ?registry r.metric d.stat with
    | Some v when holds r.comparator v r.threshold -> Some v
    | _ -> None)
  | Burn b -> (
    let rate window = Option.bind series (fun s -> burn_rate s r ~window) in
    match (rate b.fast_days, rate b.slow_days) with
    | Some fast, Some slow
      when fast >= b.burn_threshold && slow >= b.burn_threshold ->
      Some fast
    | _ -> None)

let fire t st ~day value =
  let r = st.s_rule in
  let e = { e_rule = r; fired_day = day; value; last_day = day; resolved_day = None } in
  st.current <- Some e;
  t.history <- e :: t.history;
  let instant, tags =
    match r.window with
    | Debounce d ->
      ( "alert",
        [
          ("rule", r.name);
          ("metric", r.metric);
          ("stat", stat_name d.stat);
          ("scope", scope_name d.scope);
          ("value", Printf.sprintf "%g" value);
        ] )
    | Burn b ->
      ( "slo",
        [
          ("slo", r.name);
          ("objective", r.metric);
          ("burn", Printf.sprintf "%g" value);
          ("fast_days", string_of_int b.fast_days);
          ("slow_days", string_of_int b.slow_days);
        ] )
  in
  if Trace.is_enabled () then
    Trace.instant instant ~tags:(tags @ [ ("day", string_of_int day) ]);
  (* A firing is flight-recorder material in its own right, and the
     moment to persist volatile evidence: dump the ring if a dump path
     is armed, and flush the streaming trace sink so the events leading
     here survive a subsequent crash. *)
  Recorder.record_alert ~rule:r.name ~metric:r.metric ~value ~day
    ~scope:(kind_name r);
  let reason = instant ^ ":" ^ r.name in
  Recorder.dump_if_configured ~reason;
  Sink.flush_traces ~reason

(* [?scope] filters which rules this evaluation touches: a transition
   step must not reset a day rule's streak, and vice versa.  Burn-rate
   rules judge whole days, so they ride with the day evaluations. *)
let in_scope scope r =
  match (scope, r.window) with
  | None, _ -> true
  | Some s, Debounce d -> s = d.scope
  | Some s, Burn _ -> s = Day

let eval ?registry ?series ?scope t ~day =
  List.filter_map
    (fun st ->
      let r = st.s_rule in
      if not (in_scope scope r) then None
      else
        match breach ?registry ?series r with
        | Some v ->
          st.streak <- st.streak + 1;
          (match (st.current, r.window) with
          | Some e, _ -> e.last_day <- day
          | None, Debounce d when st.streak < d.for_days -> ()
          | None, _ -> fire t st ~day v);
          Option.map (fun _ -> (r, v)) st.current
        | None ->
          st.streak <- 0;
          Option.iter (fun e -> e.resolved_day <- Some day) st.current;
          st.current <- None;
          None)
    t.states

let events t = List.rev t.history
let active t = List.rev (List.filter (fun e -> e.resolved_day = None) t.history)

(* The rule's own fields, in the order the parser documents them. *)
let rule_json r =
  let op =
    [ ("op", Json.Str (comparator_name r.comparator)); ("threshold", Json.Num r.threshold) ]
  in
  ("rule", Json.Str r.name)
  :: ("metric", Json.Str r.metric)
  ::
  (match r.window with
  | Debounce d ->
    (("stat", Json.Str (stat_name d.stat)) :: op)
    @ [ ("for_days", Json.int d.for_days); ("scope", Json.Str (scope_name d.scope)) ]
  | Burn b ->
    op
    @ [
        ("goal", Json.Num b.goal);
        ("window_days", Json.int b.window_days);
        ("fast_days", Json.int b.fast_days);
        ("slow_days", Json.int b.slow_days);
        ("burn_threshold", Json.Num b.burn_threshold);
      ])

let event_json e =
  Json.Obj
    (rule_json e.e_rule
    @ [
        ("fired_day", Json.int e.fired_day);
        ("last_day", Json.int e.last_day);
        ( "resolved_day",
          match e.resolved_day with None -> Json.Null | Some d -> Json.int d );
        ("value", Json.Num e.value);
      ])

let events_json evs =
  Json.Obj
    [
      ("count", Json.int (List.length evs));
      ("alerts", Json.Arr (List.map event_json evs));
    ]

(* --- rule parsing ------------------------------------------------- *)

let comparators =
  [ (">", Gt); (">=", Ge); ("<", Lt); ("<=", Le); ("gt", Gt); ("ge", Ge);
    ("lt", Lt); ("le", Le) ]

let debounce_keys = [ "stat"; "for_days"; "scope" ]
let burn_keys = [ "goal"; "fast_days"; "slow_days"; "burn_threshold" ]

(* Build a rule from an entry whose fields already have their shapes;
   raises [Invalid_argument] on what the shapes cannot say (the two
   kinds' fields mixed, the constructors' cross-field bounds). *)
let rule_of_entry j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let num k = Option.bind (Json.member k j) Json.to_float in
  let int k = Option.map int_of_float (num k) in
  let refuse keys why =
    match List.filter (fun k -> Json.member k j <> None) keys with
    | [] -> ()
    | set ->
      invalid_arg
        (Printf.sprintf "%s %s" (String.concat ", " (List.map (Printf.sprintf "%S") set)) why)
  in
  let name = Option.get (str "name") and metric = Option.get (str "metric") in
  let cmp = List.assoc (Option.get (str "op")) comparators in
  let threshold = Option.get (num "threshold") in
  match int "window_days" with
  | Some window_days ->
    refuse debounce_keys "cannot be set on a burn-rate rule (it has \"window_days\")";
    burn ?goal:(num "goal") ?fast_days:(int "fast_days") ?slow_days:(int "slow_days")
      ?burn_threshold:(num "burn_threshold") ~name ~metric ~window_days cmp
      threshold
  | None ->
    refuse burn_keys "needs \"window_days\" (burn-rate rules only)";
    let by_name name_of xs s = List.find (fun x -> name_of x = s) xs in
    rule
      ?stat:(Option.map (by_name stat_name stats) (str "stat"))
      ?for_days:(int "for_days")
      ?scope:(Option.map (by_name scope_name scopes) (str "scope"))
      ~name ~metric cmp threshold

let entry_shape =
  Shape.(
    obj
      [
        req "name" nonempty;
        req "metric" nonempty;
        req "op" (one_of (List.map fst comparators));
        req "threshold" finite;
        opt "stat" (one_of (List.map stat_name stats));
        opt "for_days" (int_at_least 1);
        opt "scope" (one_of (List.map scope_name scopes));
        opt "window_days" (int_at_least 1);
        opt "goal" finite;
        opt "fast_days" (int_at_least 1);
        opt "slow_days" (int_at_least 1);
        opt "burn_threshold" finite;
        satisfies (fun j ->
            match rule_of_entry j with
            | _ -> Ok ()
            | exception Invalid_argument msg -> Error msg);
      ])

let rules_of_json j =
  let entries =
    match j with
    | Json.Arr items -> Some items
    | Json.Obj _ -> Option.bind (Json.member "rules" j) Json.to_list
    | _ -> None
  in
  match entries with
  | None -> Error "expected {\"rules\": [...]} or a top-level array"
  | Some [] -> Error "no rules given"
  | Some items ->
    Result.map
      (fun () -> List.map rule_of_entry items)
      (Shape.check (Shape.arr ~label:(Shape.numbered "rule") entry_shape) (Json.Arr items))

let rules_of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Json.parse text with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> rules_of_json j)
