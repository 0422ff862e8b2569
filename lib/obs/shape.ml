(* The value under check: [where] labels the container it sits in,
   [key] the field holding it ([None] for an array element or the
   document root, whose [where] is already its own label). *)
type ctx = { where : string; key : string option }

(* [noun] names the type in a "missing <noun> \"key\"" error. *)
type t = { noun : string; run : ctx -> Json.t -> (unit, string) result }

let located where msg = if where = "" then msg else where ^ ": " ^ msg

let subject ctx =
  match ctx.key with Some k -> Printf.sprintf "%S " k | None -> ""

let fail ctx msg = Error (located ctx.where (subject ctx ^ msg))

(* The label a container passes down to what it holds. *)
let label_of ctx =
  match ctx.key with
  | None -> ctx.where
  | Some k -> if ctx.where = "" then k else ctx.where ^ "." ^ k

let check ?(where = "") t j = t.run { where; key = None } j

let scalar noun problem =
  {
    noun;
    run = (fun ctx j -> match problem j with None -> Ok () | Some m -> fail ctx m);
  }

let string_where ok msg =
  scalar "string" (function
    | Json.Str s -> if ok s then None else Some (msg s)
    | _ -> Some "must be a string")

let number_where ok msg =
  scalar "numeric" (function
    | Json.Num v -> if ok v then None else Some msg
    | _ -> Some "must be a number")

let str = string_where (fun _ -> true) Fun.id
let nonempty = string_where (fun s -> s <> "") (fun _ -> "must be a non-empty string")

let exactly v =
  string_where (String.equal v) (fun s -> Printf.sprintf "is %S, expected %S" s v)

let one_of vs =
  string_where
    (fun s -> List.mem s vs)
    (fun s ->
      Printf.sprintf "is %S, expected one of %s" s
        (String.concat ", " (List.map (Printf.sprintf "%S") vs)))

let num = number_where (fun _ -> true) ""
let finite = number_where Float.is_finite "is not finite"

let at_least b =
  number_where
    (fun v -> v >= b)
    (if b = 0.0 then "is negative" else Printf.sprintf "below %g" b)

let int_at_least b =
  number_where
    (fun v -> Float.is_integer v && v >= float_of_int b)
    (Printf.sprintf "must be an integer >= %d" b)

(* --- objects ------------------------------------------------------ *)

(* A field check gets the object's own label and the object. *)
type field = string -> Json.t -> (unit, string) result

let rec all fields label o =
  match fields with
  | [] -> Ok ()
  | f :: rest -> Result.bind (f label o) (fun () -> all rest label o)

let obj fields =
  {
    noun = "object";
    run =
      (fun ctx j ->
        match j with
        | Json.Obj _ -> all fields (label_of ctx) j
        | _ -> fail ctx "must be an object");
  }

let opt k t label o =
  match Json.member k o with
  | Some v -> t.run { where = label; key = Some k } v
  | None -> Ok ()

let req k t label o =
  match Json.member k o with
  | Some _ -> opt k t label o
  | None -> Error (located label (Printf.sprintf "missing %s %S" t.noun k))

let case k v fields label o =
  match Json.member k o with
  | Some (Json.Str s) when s = v -> all fields label o
  | _ -> Ok ()

let satisfies p label o = Result.map_error (located label) (p o)

(* --- arrays ------------------------------------------------------- *)

type label = ctx -> int -> Json.t -> string

let id el =
  match Json.member "name" el with
  | Some (Json.Str s) -> Printf.sprintf " (%S)" s
  | _ -> ""

let indexed ctx i el = Printf.sprintf "%s[%d]%s" (label_of ctx) i (id el)
let numbered kind _ i el = Printf.sprintf "%s %d%s" kind i (id el)

let nested ctx i el =
  match Json.member "name" el with
  | Some (Json.Str s) -> ctx.where ^ "/" ^ s
  | _ -> Printf.sprintf "%s/[%d]" ctx.where i

let arr ?(label = indexed) t =
  let rec each ctx i = function
    | [] -> Ok ()
    | el :: rest ->
      Result.bind
        (t.run { where = label ctx i el; key = None } el)
        (fun () -> each ctx (i + 1) rest)
  in
  {
    noun = "array";
    run =
      (fun ctx j ->
        match j with
        | Json.Arr els -> each ctx 0 els
        | _ -> fail ctx "must be an array");
  }

let fix f =
  let self = ref None in
  let t =
    f { noun = "object"; run = (fun ctx j -> (Option.get !self).run ctx j) }
  in
  self := Some t;
  t
