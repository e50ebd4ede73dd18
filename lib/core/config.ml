(** Compiler configurations: a compiler (pipeline family), an
    optimization level, and a set of disabled pass instances — the
    paper's [Ox-dy] configurations are values of this type. *)

type compiler = Gcc | Clang

type level = O0 | Og | O1 | O2 | O3

type t = {
  compiler : compiler;
  level : level;
  disabled : string list;
      (** pass names to disable; a name disables every instance of the
          pass in the pipeline (paper footnote 2) *)
}

let compiler_name = function Gcc -> "gcc" | Clang -> "clang"

let level_name = function
  | O0 -> "O0"
  | Og -> "Og"
  | O1 -> "O1"
  | O2 -> "O2"
  | O3 -> "O3"

let compiler_of_string = function
  | "gcc" -> Some Gcc
  | "clang" -> Some Clang
  | _ -> None

let level_of_string = function
  | "O0" -> Some O0
  | "Og" -> Some Og
  | "O1" -> Some O1
  | "O2" -> Some O2
  | "O3" -> Some O3
  | _ -> None

(** Canonical form: [disabled] sorted and deduplicated. Two values that
    agree up to order and duplication of [disabled] denote the same
    semantic configuration ({!enabled} is a set-membership test), so
    every derived identity below goes through this. *)
let canonical c =
  { c with disabled = List.sort_uniq String.compare c.disabled }

let name c =
  let base = Printf.sprintf "%s-%s" (compiler_name c.compiler) (level_name c.level) in
  match (canonical c).disabled with
  | [] -> base
  | ds -> Printf.sprintf "%s-d%d" base (List.length ds)

let make ?(disabled = []) compiler level =
  canonical { compiler; level; disabled }

let level_index = function O0 -> 0 | Og -> 1 | O1 -> 2 | O2 -> 3 | O3 -> 4

let compare a b =
  let a = canonical a and b = canonical b in
  let c = Stdlib.compare a.compiler b.compiler in
  if c <> 0 then c
  else
    let c = Stdlib.compare (level_index a.level) (level_index b.level) in
    if c <> 0 then c
    else Stdlib.compare a.disabled b.disabled

let equal a b = compare a b = 0

let hash c = Hashtbl.hash (canonical c)

let fingerprint c =
  let c = canonical c in
  Printf.sprintf "%s:%s:%s" (compiler_name c.compiler) (level_name c.level)
    (String.concat "," c.disabled)

(** Standard levels of a compiler (clang has no Og, as in the paper). *)
let standard_levels = function
  | Gcc -> [ Og; O1; O2; O3 ]
  | Clang -> [ O1; O2; O3 ]

let enabled c pass_name = not (List.mem pass_name c.disabled)
