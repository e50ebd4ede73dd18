(* The traced run's recorder. Every per-layer number comes from a timer
   the benchmark itself wraps around a call into a layer's public
   function, or from the two public observation seams: an
   [Instrument.t] handed to [Toolchain.compile/start/advance/resume],
   and [Engine.Disk_store.set_io_wrap]. Nothing here adds a span inside
   the program.

   Accumulators are shared between the benchmark's threads and the
   daemon's executor domains (store I/O under [serve]), so every update
   takes the recorder's mutex. *)

let now () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

type t = {
  mu : Mutex.t;
  secs : (string, float) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
}

let create () =
  { mu = Mutex.create (); secs = Hashtbl.create 64; counts = Hashtbl.create 32 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let add_s t name dt =
  locked t (fun () ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt t.secs name) in
      Hashtbl.replace t.secs name (v +. dt))

let add_n t name n =
  locked t (fun () ->
      let v = Option.value ~default:0 (Hashtbl.find_opt t.counts name) in
      Hashtbl.replace t.counts name (v + n))

let secs t name =
  locked t (fun () -> Option.value ~default:0.0 (Hashtbl.find_opt t.secs name))

let count t name =
  locked t (fun () -> Option.value ~default:0 (Hashtbl.find_opt t.counts name))

(** [time t name f] runs [f], adding its wall time to layer [name]. *)
let time t name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add_s t name (now () -. t0)) f

(** [time_opt (Some t) name f] is [time t name f]; [None] runs [f] bare —
    the same call sequence, so the plain and the traced replay differ
    only by the timers. *)
let time_opt r name f = match r with Some t -> time t name f | None -> f ()

(** Per-pass IR layer names get this prefix and suffix. *)
let pass_metric name = "passes." ^ name ^ "_s"

(** An instrument attributing each pass boundary's interval (since the
    previous boundary, or since the enclosing phase began) to its layer:
    [lower]/[mem2reg] to [ir.lower_s], every other IR pass to
    [passes.<name>_s] and [passes.busy_s], [isel] to [backend.isel_s],
    machine passes to [backend.mach_s], emission to [backend.emit_s].
    The time after a phase's last boundary stays unattributed. Total
    time inside phases goes to [phase_s], so that a caller timing
    [start]/[advance]/[resume] can attribute the remainder — snapshot
    capture and restore — to [ir.snapshot_s]. *)
let instrument t =
  let last = ref (now ()) and phase_t0 = ref 0.0 and depth = ref 0 in
  {
    Instrument.on_phase_start =
      (fun _ ->
        let n = now () in
        if !depth = 0 then phase_t0 := n;
        incr depth;
        last := n);
    on_phase_end =
      (fun _ ->
        decr depth;
        if !depth = 0 then add_s t "phase_s" (now () -. !phase_t0));
    on_pass =
      (fun name scope ->
        let n = now () in
        let dt = n -. !last in
        last := n;
        match scope with
        | Instrument.Ir_program _ ->
            if name = "lower" || name = "mem2reg" then add_s t "ir.lower_s" dt
            else begin
              add_s t (pass_metric name) dt;
              add_s t "passes.busy_s" dt;
              add_n t "passes.executed" 1
            end
        | Instrument.Mach_fn _ ->
            add_s t (if name = "isel" then "backend.isel_s" else "backend.mach_s") dt
        | Instrument.Binary _ -> add_s t "backend.emit_s" dt);
  }

(** [checkpointing t f] runs a [Toolchain.start/advance/resume] call [f]
    given a fresh {!instrument}; the call's wall time outside the
    toolchain's phases is snapshot capture/restore, [ir.snapshot_s]. *)
let checkpointing t f =
  let before = secs t "phase_s" in
  let t0 = now () in
  let r = f (instrument t) in
  let outside = now () -. t0 -. (secs t "phase_s" -. before) in
  add_s t "ir.snapshot_s" (Float.max 0.0 outside);
  r

(** Route every disk-store I/O through [t]: [store:get] to
    [engine.store_get_s], [store:put] to [engine.store_put_s]. *)
let wrap_store_io t =
  Engine.Disk_store.set_io_wrap
    (Some
       {
         Engine.Disk_store.wrap =
           (fun name _ f ->
             match name with
             | "store:get" -> time t "engine.store_get_s" f
             | "store:put" -> time t "engine.store_put_s" f
             | _ -> f ());
       })

(** Remove the wrap. The program's own wrap, which only feeds [Obs]
    sessions (none runs in the benchmark), is not reinstated. *)
let unwrap_store_io () = Engine.Disk_store.set_io_wrap None
