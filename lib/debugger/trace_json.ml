(** JSON export/import of debug traces.

    The paper's prototype "export[s] the debug trace for the session as
    a JSON file to ease offline trace comparisons" (Section III-C); this
    module provides the same facility. The writer prints this fixed,
    diff-friendly layout; the reader goes through {!Util.Json}:

    {v
    { "steppable": [l, ...],
      "hit_order": [l, ...],
      "stepped":   [ { "line": l, "vars": ["origin:name", ...] }, ... ] }
    v} *)

exception Parse_error = Util.Json.Parse_error

(** [to_string trace] renders the trace as a JSON document. Lines are
    sorted; variables per line are sorted; output is canonical, so equal
    traces produce equal strings (diff-friendly, as intended). *)
let to_string (t : Debugger.trace) =
  let buf = Buffer.create 1024 in
  let ints l =
    "[" ^ String.concat "," (List.map string_of_int l) ^ "]"
  in
  Buffer.add_string buf "{\n  \"steppable\": ";
  Buffer.add_string buf (ints (List.sort compare t.Debugger.steppable));
  Buffer.add_string buf ",\n  \"hit_order\": ";
  Buffer.add_string buf (ints t.Debugger.hit_order);
  Buffer.add_string buf ",\n  \"stepped\": [";
  let entries =
    Hashtbl.fold (fun line vars acc -> (line, vars) :: acc) t.Debugger.stepped []
    |> List.sort compare
  in
  List.iteri
    (fun i (line, vars) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    { \"line\": %d, \"vars\": [" line);
      let names =
        Debugger.Var_set.elements vars
        |> List.map (fun (v : Ir.var_id) ->
               Printf.sprintf "\"%s\"" (Util.Json.escape (Ir.var_to_string v)))
      in
      Buffer.add_string buf (String.concat ", " names);
      Buffer.add_string buf "] }")
    entries;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(** [of_string s] parses a document produced by {!to_string}, raising
    {!Parse_error} on malformed JSON or a missing or mistyped key. The
    [per_input_lines] detail is not serialized and comes back empty. *)
let of_string s : Debugger.trace =
  let module J = Util.Json in
  let fail what = raise (Parse_error ("expected " ^ what)) in
  let need what = function Some x -> x | None -> fail what in
  let key k j = need ("key " ^ k) (J.field k j) in
  let list conv what j =
    List.map (fun v -> need what (conv v)) (need what (J.arr j))
  in
  let var_of_string s =
    match String.index_opt s ':' with
    | Some k ->
        {
          Ir.origin = String.sub s 0 k;
          name = String.sub s (k + 1) (String.length s - k - 1);
        }
    | None -> { Ir.origin = ""; name = s }
  in
  let doc = J.parse s in
  let stepped = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let vars = list J.str "variable names" (key "vars" e) in
      Hashtbl.replace stepped
        (need "an integer line" (J.int (key "line" e)))
        (Debugger.Var_set.of_list (List.map var_of_string vars)))
    (list Option.some "entries" (key "stepped" doc));
  {
    Debugger.stepped;
    steppable = list J.int "integer lines" (key "steppable" doc);
    hit_order = list J.int "integer lines" (key "hit_order" doc);
    per_input_lines = [||];
  }

(* ------------------------------------------------------------------ *)
(* Offline trace comparison                                            *)

type diff = {
  lines_lost : int list;  (** stepped in [a] but not in [b] *)
  lines_gained : int list;
  vars_lost : (int * Ir.var_id list) list;
      (** per common line: variables visible in [a] but not [b] *)
}

(** [compare_traces a b] — the offline comparison the JSON export is
    for: what did [b] (e.g. an optimized build's session) lose relative
    to [a] (e.g. the O0 session)? *)
let compare_traces (a : Debugger.trace) (b : Debugger.trace) : diff =
  let lines t =
    Hashtbl.fold (fun l _ acc -> l :: acc) t.Debugger.stepped [] |> List.sort compare
  in
  let la = lines a and lb = lines b in
  let lines_lost = List.filter (fun l -> not (List.mem l lb)) la in
  let lines_gained = List.filter (fun l -> not (List.mem l la)) lb in
  let vars_lost =
    List.filter_map
      (fun l ->
        match (Hashtbl.find_opt a.Debugger.stepped l, Hashtbl.find_opt b.Debugger.stepped l) with
        | Some va, Some vb ->
            let lost = Debugger.Var_set.diff va vb in
            if Debugger.Var_set.is_empty lost then None
            else Some (l, Debugger.Var_set.elements lost)
        | _ -> None)
      la
  in
  { lines_lost; lines_gained; vars_lost }
