(** A direct AST interpreter for MiniC — a reference semantics
    independent of the whole IR/backend/VM path.

    Used as the third leg of differential testing: the interpreter, the
    O0 build and every optimized build must agree on all outputs. Shares
    the operator semantics with the IR and the VM ([Arith] is the single
    source of arithmetic truth), and mirrors the runtime conventions:
    uninitialized scalars read 0, arrays are zero-initialized, indices
    wrap modulo the array size, division by zero yields 0. *)

open Ast

exception Step_limit

type value_cell = Scalar of int ref | Array of int array

type observer = fname:string -> line:int -> (string * value_cell) list -> unit
(** Called before executing a statement: enclosing function, source
    line, and every local/parameter visible there (MiniC forbids
    shadowing, so a name identifies one variable per function). *)

type state = {
  globals : (string, value_cell) Hashtbl.t;
  funcs : (string, func) Hashtbl.t;
  mutable input : int list;
  mutable output_rev : int list;
  mutable steps : int;
  max_steps : int;
  observer : observer option;
}

type frame = {
  locals : (string, value_cell) Hashtbl.t list ref;
  fr_fname : string;
}
(* A stack of scopes, innermost first. *)

exception Return_exc of int
exception Break_exc
exception Continue_exc

let wrap_index = Arith.wrap_index

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then raise Step_limit

let rec lookup_cell st (fr : frame) name =
  let rec in_scopes = function
    | [] -> None
    | scope :: rest -> (
        match Hashtbl.find_opt scope name with
        | Some c -> Some c
        | None -> in_scopes rest)
  in
  match in_scopes !(fr.locals) with
  | Some c -> c
  | None -> (
      match Hashtbl.find_opt st.globals name with
      | Some c -> c
      | None -> failwith ("Interp: unbound " ^ name))

and eval st fr (e : expr) =
  tick st;
  match e.edesc with
  | Int n -> n
  | Var name -> (
      match lookup_cell st fr name with
      | Scalar r -> !r
      | Array _ -> failwith "Interp: array read as scalar")
  | Index (name, idx) -> (
      let i = eval st fr idx in
      match lookup_cell st fr name with
      | Array a -> a.(wrap_index i (Array.length a))
      | Scalar _ -> failwith "Interp: scalar indexed")
  | Unary (op, a) ->
      let v = eval st fr a in
      (match op with
      | Neg -> Arith.neg v
      | Lnot -> Arith.lnot v
      | Bnot -> Arith.bnot v)
  | Binary (Land, a, b) -> if eval st fr a = 0 then 0 else if eval st fr b <> 0 then 1 else 0
  | Binary (Lor, a, b) -> if eval st fr a <> 0 then 1 else if eval st fr b <> 0 then 1 else 0
  | Binary (op, a, b) ->
      let va = eval st fr a in
      let vb = eval st fr b in
      (match op with
      | Add -> Arith.add va vb
      | Sub -> Arith.sub va vb
      | Mul -> Arith.mul va vb
      | Div -> Arith.div va vb
      | Rem -> Arith.rem va vb
      | Band -> Arith.band va vb
      | Bor -> Arith.bor va vb
      | Bxor -> Arith.bxor va vb
      | Shl -> Arith.shl va vb
      | Shr -> Arith.shr va vb
      | Eq -> Arith.ceq va vb
      | Ne -> Arith.cne va vb
      | Lt -> Arith.clt va vb
      | Le -> Arith.cle va vb
      | Gt -> Arith.cgt va vb
      | Ge -> Arith.cge va vb
      | Land | Lor -> assert false)
  | Call (f, args) ->
      let argv = List.map (eval st fr) args in
      call st f argv
  | Input -> (
      match st.input with
      | [] -> 0
      | v :: rest ->
          st.input <- rest;
          v)
  | Eof -> ( match st.input with [] -> 1 | _ -> 0)

and exec_block st fr (b : block) =
  let scope = Hashtbl.create 8 in
  fr.locals := scope :: !(fr.locals);
  Fun.protect
    ~finally:(fun () -> fr.locals := List.tl !(fr.locals))
    (fun () -> List.iter (exec_stmt st fr) b.stmts)

and exec_stmt st fr (s : stmt) =
  tick st;
  (match st.observer with
  | Some observe when s.sline > 0 ->
      let visible =
        List.concat_map
          (fun scope -> Hashtbl.fold (fun n c acc -> (n, c) :: acc) scope [])
          !(fr.locals)
      in
      observe ~fname:fr.fr_fname ~line:s.sline visible
  | _ -> ());
  match s.sdesc with
  | Decl_scalar (name, init) ->
      let v = match init with Some e -> eval st fr e | None -> 0 in
      let scope = List.hd !(fr.locals) in
      Hashtbl.replace scope name (Scalar (ref v))
  | Decl_array (name, size) ->
      let scope = List.hd !(fr.locals) in
      Hashtbl.replace scope name (Array (Array.make size 0))
  | Assign (name, e) -> (
      let v = eval st fr e in
      match lookup_cell st fr name with
      | Scalar r -> r := v
      | Array _ -> failwith "Interp: array assigned as scalar")
  | Assign_index (name, idx, e) -> (
      let i = eval st fr idx in
      let v = eval st fr e in
      match lookup_cell st fr name with
      | Array a -> a.(wrap_index i (Array.length a)) <- v
      | Scalar _ -> failwith "Interp: scalar indexed")
  | If (cond, then_b, else_b) ->
      if eval st fr cond <> 0 then exec_block st fr then_b
      else exec_block st fr else_b
  | While (cond, body) -> (
      try
        while eval st fr cond <> 0 do
          try exec_block st fr body with Continue_exc -> ()
        done
      with Break_exc -> ())
  | For (init, cond, step, body) -> (
      (* The header scope holds the induction declaration. *)
      let scope = Hashtbl.create 4 in
      fr.locals := scope :: !(fr.locals);
      Fun.protect
        ~finally:(fun () -> fr.locals := List.tl !(fr.locals))
        (fun () ->
          Option.iter (exec_stmt st fr) init;
          let continue_cond () =
            match cond with Some c -> eval st fr c <> 0 | None -> true
          in
          try
            while continue_cond () do
              (try exec_block st fr body with Continue_exc -> ());
              Option.iter (exec_stmt st fr) step
            done
          with Break_exc -> ()))
  | Return None -> raise (Return_exc 0)
  | Return (Some e) -> raise (Return_exc (eval st fr e))
  | Break -> raise Break_exc
  | Continue -> raise Continue_exc
  | Expr e -> ignore (eval st fr e)
  | Output e -> st.output_rev <- eval st fr e :: st.output_rev

and call st fname argv =
  match Hashtbl.find_opt st.funcs fname with
  | None -> failwith ("Interp: unknown function " ^ fname)
  | Some f ->
      let scope = Hashtbl.create 8 in
      List.iteri
        (fun i p ->
          let v = Option.value ~default:0 (List.nth_opt argv i) in
          Hashtbl.replace scope p (Scalar (ref v)))
        f.params;
      let fr = { locals = ref [ scope ]; fr_fname = fname } in
      (try
         exec_block st fr f.body;
         0
       with Return_exc v -> v)

(** [run program ~entry ~input] interprets the program from [entry],
    returning the output sequence. Raises {!Step_limit} past
    [max_steps]. *)
let run ?(max_steps = 4_000_000) ?observer (p : program) ~entry ~input =
  let globals = Hashtbl.create 16 in
  List.iter
    (function
      | Gscalar (n, v) -> Hashtbl.replace globals n (Scalar (ref v))
      | Garray (n, size) -> Hashtbl.replace globals n (Array (Array.make size 0)))
    p.globals;
  let funcs = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace funcs f.fname f) p.funcs;
  let st =
    { globals; funcs; input; output_rev = []; steps = 0; max_steps; observer }
  in
  ignore (call st entry []);
  List.rev st.output_rev
