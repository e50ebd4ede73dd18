(* Named integer counters plus a per-(domain, thread) request scope
   (see counters.mli). *)

type t = { mu : Mutex.t; tbl : (string, int ref) Hashtbl.t }

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 16 }
let global = create ()

(* A leaf: callers may hold their own locks (the disk store counts
   evictions under its mutex), so this takes [t.mu] and nothing else. *)
let bump t name n =
  Mutex.lock t.mu;
  (match Hashtbl.find t.tbl name with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.add t.tbl name (ref n));
  Mutex.unlock t.mu

(* The current scope of each systhread of this domain, keyed by thread
   id. Only this domain's threads touch its list, and each only its own
   entry, so a compare-and-set loop is enough; readers take no lock. *)
let scopes : (int * t) list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

let current () =
  match Atomic.get (Domain.DLS.get scopes) with
  | [] -> None
  | l -> List.assoc_opt (Thread.id (Thread.self ())) l

let add t name n =
  bump t name n;
  match current () with Some s -> bump s name n | None -> ()

let get t name =
  Mutex.lock t.mu;
  let v = match Hashtbl.find t.tbl name with r -> !r | exception Not_found -> 0 in
  Mutex.unlock t.mu;
  v

let rows ?(prefix = "") t =
  Mutex.lock t.mu;
  let out =
    Hashtbl.fold
      (fun name r acc ->
        if !r <> 0 && String.starts_with ~prefix name then (name, !r) :: acc
        else acc)
      t.tbl []
  in
  Mutex.unlock t.mu;
  List.sort compare out

let reset t ~prefix =
  Mutex.lock t.mu;
  Hashtbl.filter_map_inplace
    (fun name r -> if String.starts_with ~prefix name then None else Some r)
    t.tbl;
  Mutex.unlock t.mu

let with_scope s f =
  let cell = Domain.DLS.get scopes in
  let id = Thread.id (Thread.self ()) in
  let rec update g =
    let l = Atomic.get cell in
    if not (Atomic.compare_and_set cell l (g (List.remove_assoc id l))) then
      update g
  in
  let prev = List.assoc_opt id (Atomic.get cell) in
  update (fun l -> (id, s) :: l);
  Fun.protect f ~finally:(fun () ->
      update (fun l -> match prev with Some p -> (id, p) :: l | None -> l);
      match prev with
      | Some p when p != s -> List.iter (fun (n, v) -> bump p n v) (rows s)
      | _ -> ())
