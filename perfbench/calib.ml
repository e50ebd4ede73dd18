(* Host-speed calibration for the end-to-end metrics.

   The benchmark runs on a few cores of a shared host. Two things there
   move a raw time that have nothing to do with the program:

   - the host's per-instruction speed (clock, a busy sibling hardware
     thread, cache and memory contention), which can change by a factor
     of two from one run to the next and moves CPU time as much as wall
     time;
   - the hypervisor or other processes holding a CPU while the
     benchmark is ready to run.

   For the first, each measured piece of work is bracketed by samples of
   a fixed reference kernel, and its times are scaled by how much more
   CPU time than nominal that kernel took at that moment. CPU time is
   used because it is blind to the second effect, which would otherwise
   stretch the kernel's sample and skew the scale. For the second, the
   time the measuring thread spent runnable but waiting for a CPU (the
   scheduler's run delay) and the CPU time the hypervisor stole meanwhile
   are left out of its wall time. A reported time is thus in
   reference-host seconds: what the work would take on an otherwise idle
   host that runs the kernel in [nominal] CPU seconds.

   The kernel shares no code with the program under test, so a change
   to the program never moves it. It runs in the measuring thread, on
   the CPU and in the conditions the work just ran in, and only while no
   other domain of the process is running. Its data never outlives a
   minor collection, so it does no work on the program's major heap and
   the program's memory use does not move it. *)

let now () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

module IM = Map.Make (Int)

(** The reference kernel: balanced-tree inserts and list sorts over
    small, short-lived data — the allocation-heavy, pointer-chasing mix a
    compiler's passes make. Its result only defeats dead code
    elimination. *)
let kernel () =
  let acc = ref 0 in
  for r = 0 to 59 do
    let st = Random.State.make [| r |] in
    let m = ref IM.empty in
    for i = 0 to 400 do
      m := IM.add (Random.State.int st 100_000) i !m
    done;
    let l = List.sort compare (List.init 400 (fun _ -> Random.State.int st 1_000_000)) in
    acc := !acc + IM.cardinal !m + List.length l
  done;
  !acc

(** The kernel's CPU time, in seconds, on the reference host (its
    typical median on the 2-vCPU development VM). *)
let nominal = 0.008

(** Seconds the calling thread has spent runnable but not running (the
    second field of Linux's [/proc/thread-self/schedstat]); 0 where the
    file is missing. *)
let run_delay () =
  match open_in "/proc/thread-self/schedstat" with
  | ic ->
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      Scanf.sscanf line "%_d %Ld" Int64.to_float *. 1e-9
  | exception Sys_error _ -> 0.0

(** Seconds of CPU time the hypervisor has taken from this machine's
    virtual CPUs, summed over them (the steal field of [/proc/stat],
    in 1/100 s); 0 where the file is missing. *)
let steal () =
  match open_in "/proc/stat" with
  | ic ->
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      Scanf.sscanf line "cpu %_d %_d %_d %_d %_d %_d %_d %d" float_of_int /. 100.0
  | exception (Sys_error _ | Scanf.Scan_failure _ | End_of_file) -> 0.0

(** The calibration state: the last sample, with when it was taken. *)
type t = { mutable last : (float * float) option }

let create () = { last = None }

(** The median CPU seconds of [reps] kernel runs. A minor collection
    first moves whatever the measured work left in the minor heap out of
    the kernel's way. *)
let sample t ~reps =
  Gc.minor ();
  let times =
    List.init reps (fun _ ->
        let c0 = cpu () in
        ignore (Sys.opaque_identity (kernel ()));
        cpu () -. c0)
  in
  let c = List.nth (List.sort compare times) (reps / 2) in
  t.last <- Some (now (), c);
  c

(** A sample taken this recently serves as the next span's first. *)
let fresh_for = 0.05

(** [around t ~reps f] runs [f] between two samples of [reps] kernel
    runs each and returns its result and the host speed around it: the
    nominal over the samples' mean, in reference CPU seconds per host
    CPU second. A longer [f] affords a larger [reps]. *)
let around t ~reps f =
  let c0 =
    match t.last with
    | Some (at, c) when now () -. at < fresh_for -> c
    | _ -> sample t ~reps
  in
  let r = f () in
  let c1 = sample t ~reps in
  (r, 2.0 *. nominal /. (c0 +. c1))
