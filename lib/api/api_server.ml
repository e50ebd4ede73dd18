(** The [debugtuner serve] daemon: a persistent process owning one
    {!Api.ctx} — engine memo tables, disk store, prepared corpora —
    shared by every client, so warm requests cost approximately
    nothing.

    Transports: always a Unix-domain socket; optionally a TCP listener
    ([~listen:"HOST:PORT"]) speaking the identical length-prefixed JSON
    codec ([Framing] is transport-agnostic). One accept thread per
    listener; one lightweight thread per connection (a session, with
    its own id).

    Execution: admitted requests are pushed onto a bounded job queue
    drained by a pool of executor {e domains} ([~executors], default
    {!default_executors}) — systhreads share one runtime lock, so
    genuine concurrency needs domains. {!Api.execute} is safe to run
    concurrently on the shared context (per-request counter scopes,
    domain-safe caches; see {!Api.ctx}), and the engine's own Domain
    pool declines to nest spawning from a worker domain, so an executor
    runs its request's internal work sequentially while other executors
    make progress. With [~executors:0] requests execute inline on their
    session thread (serialized by the runtime lock — the pre-pool
    behavior).

    Admission is bounded regardless of executor count: at most
    [queue_limit] requests may be admitted (executing or queued) at
    once; beyond that a client gets an immediate [Overloaded] response
    — backpressure, never a hang. *)

(* A one-shot synchronization cell: the session thread parks on [read]
   until the executor [fill]s the response. *)
module Ivar = struct
  type 'a t = { mu : Mutex.t; cv : Condition.t; mutable v : 'a option }

  let create () = { mu = Mutex.create (); cv = Condition.create (); v = None }

  let fill t x =
    Mutex.lock t.mu;
    t.v <- Some x;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu

  let read t =
    Mutex.lock t.mu;
    while t.v = None do
      Condition.wait t.cv t.mu
    done;
    let x = Option.get t.v in
    Mutex.unlock t.mu;
    x
end

type job = {
  j_req : Api.Request.t;
  j_session : int;
  j_reply : Api.Response.t Ivar.t;
}

type t = {
  ctx : Api.ctx;
  socket_path : string;
  queue_limit : int;
  executor_count : int;
  listen_fd : Unix.file_descr;
  tcp : (Unix.file_descr * string * int) option;  (** fd, host, bound port *)
  lock : Mutex.t;
  mutable stopping : bool;
  mutable in_flight : int;  (** admitted requests not yet answered *)
  mutable sessions : int;  (** connections accepted so far *)
  mutable live_sessions : int;
  mutable requests : int;  (** requests admitted and executed *)
  mutable overloaded : int;  (** requests refused by admission control *)
  mutable protocol_errors : int;  (** undecodable frames *)
  mutable client_threads : Thread.t list;
  jobs : job Queue.t;
  jobs_mu : Mutex.t;
  jobs_cv : Condition.t;
  mutable executors : unit Domain.t list;
}

let counters t =
  Mutex.lock t.lock;
  let rows =
    [
      ("serve/sessions", t.sessions);
      ("serve/live_sessions", t.live_sessions);
      ("serve/requests", t.requests);
      ("serve/in_flight", t.in_flight);
      ("serve/overloaded", t.overloaded);
      ("serve/protocol_errors", t.protocol_errors);
    ]
  in
  Mutex.unlock t.lock;
  List.filter (fun (_, v) -> v <> 0) rows

let default_queue_limit = 8

(* Never more executor domains than cores: on an N-core box the extra
   domains buy no parallelism and pay for it in stop-the-world minor
   GCs, which every domain must join. *)
let default_executors = min 4 (Domain.recommended_domain_count ())

(** ["HOST:PORT"] → (host, resolved address, port). Unparseable specs
    and unresolvable hosts raise [Invalid_argument]. *)
let parse_listen spec =
  match String.rindex_opt spec ':' with
  | None -> invalid_arg (Printf.sprintf "bad HOST:PORT %S" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port_s with
      | None ->
          invalid_arg (Printf.sprintf "bad HOST:PORT %S" spec)
      | Some port when port < 0 || port > 65535 ->
          invalid_arg (Printf.sprintf "bad HOST:PORT %S" spec)
      | Some port ->
          let addr =
            if host = "" || host = "localhost" then Unix.inet_addr_loopback
            else
              match Unix.inet_addr_of_string host with
              | a -> a
              | exception Failure _ -> (
                  match Unix.gethostbyname host with
                  | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                      invalid_arg
                        (Printf.sprintf "cannot resolve host %S" host)
                  | h -> h.Unix.h_addr_list.(0))
          in
          let host = if host = "" then "localhost" else host in
          (host, addr, port))

let error_response msg =
  {
    Api.Response.status = Api.Response.Error msg;
    text = "";
    artifact = None;
    data = Api.Response.D_none;
    stats = [];
    exit_code = 2;
  }

(* One executor: drain jobs until stopped *and* the queue is empty —
   shutdown never abandons an admitted request (its session thread is
   parked on the reply). *)
let executor_loop t =
  let rec loop () =
    Mutex.lock t.jobs_mu;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.jobs_cv t.jobs_mu
    done;
    if Queue.is_empty t.jobs then Mutex.unlock t.jobs_mu
    else begin
      let job = Queue.pop t.jobs in
      Mutex.unlock t.jobs_mu;
      let resp =
        try
          Obs.Span.wrap
            ~args:[ ("session", string_of_int job.j_session) ]
            "serve:request"
            (fun () -> Api.execute t.ctx job.j_req)
        with e -> error_response (Printexc.to_string e)
      in
      Ivar.fill job.j_reply resp;
      loop ()
    end
  in
  loop ()

(** Bind and listen; does not accept yet (call {!serve} or {!start}).
    An existing socket file at [socket] is replaced — stale sockets
    from a killed daemon must not block a restart. [listen] adds a TCP
    listener ("HOST:PORT"; port 0 binds an ephemeral port, reported by
    {!listen_addr}). *)
let create ?(queue_limit = default_queue_limit)
    ?(executors = default_executors) ?listen ~socket (ctx : Api.ctx) =
  if queue_limit < 1 then invalid_arg "queue_limit must be >= 1";
  if executors < 0 then invalid_arg "executors must be >= 0";
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match
     Unix.bind fd (Unix.ADDR_UNIX socket);
     Unix.listen fd 64
   with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  let tcp =
    match listen with
    | None -> None
    | Some spec -> (
        let host, addr, port = parse_listen spec in
        let tfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        match
          Unix.setsockopt tfd Unix.SO_REUSEADDR true;
          Unix.bind tfd (Unix.ADDR_INET (addr, port));
          Unix.listen tfd 64;
          (match Unix.getsockname tfd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port)
        with
        | bound -> Some (tfd, host, bound)
        | exception e ->
            Unix.close tfd;
            Unix.close fd;
            raise e)
  in
  let t =
    {
      ctx;
      socket_path = socket;
      queue_limit;
      executor_count = executors;
      listen_fd = fd;
      tcp;
      lock = Mutex.create ();
      stopping = false;
      in_flight = 0;
      sessions = 0;
      live_sessions = 0;
      requests = 0;
      overloaded = 0;
      protocol_errors = 0;
      client_threads = [];
      jobs = Queue.create ();
      jobs_mu = Mutex.create ();
      jobs_cv = Condition.create ();
      executors = [];
    }
  in
  t.executors <- List.init executors (fun _ -> Domain.spawn (fun () -> executor_loop t));
  Api.server_counters_hook := (fun () -> counters t);
  t

let listen_addr t = match t.tcp with None -> None | Some (_, h, p) -> Some (h, p)

let overloaded_response =
  {
    Api.Response.status = Api.Response.Overloaded;
    text = "";
    artifact = None;
    data = Api.Response.D_none;
    stats = [];
    exit_code = 3;
  }

let protocol_error_response msg = error_response msg

(* Admission control: admit (true) or refuse (false) without blocking. *)
let admit t =
  Mutex.lock t.lock;
  let ok = t.in_flight < t.queue_limit && not t.stopping in
  if ok then begin
    t.in_flight <- t.in_flight + 1;
    t.requests <- t.requests + 1
  end
  else t.overloaded <- t.overloaded + 1;
  Mutex.unlock t.lock;
  ok

let release t =
  Mutex.lock t.lock;
  t.in_flight <- t.in_flight - 1;
  Mutex.unlock t.lock

let bump t f =
  Mutex.lock t.lock;
  f t;
  Mutex.unlock t.lock

let handle_request t ~session payload =
  match Api.request_of_json payload with
  | Error msg ->
      bump t (fun t -> t.protocol_errors <- t.protocol_errors + 1);
      protocol_error_response ("bad request: " ^ msg)
  | Ok req ->
      if not (admit t) then overloaded_response
      else
        Fun.protect
          ~finally:(fun () -> release t)
          (fun () ->
            if t.executor_count = 0 then
              Obs.Span.wrap
                ~args:[ ("session", string_of_int session) ]
                "serve:request"
                (fun () -> Api.execute t.ctx req)
            else begin
              let reply = Ivar.create () in
              Mutex.lock t.jobs_mu;
              Queue.push { j_req = req; j_session = session; j_reply = reply }
                t.jobs;
              Condition.signal t.jobs_cv;
              Mutex.unlock t.jobs_mu;
              Ivar.read reply
            end)

let handle_session t ~session fd =
  let rec loop () =
    match Framing.read_frame_opt fd with
    | None -> ()
    | Some payload ->
        let resp = handle_request t ~session payload in
        Framing.write_frame fd (Api.response_to_json resp);
        loop ()
    | exception (Framing.Closed | Framing.Oversized _ | Unix.Unix_error _) ->
        ()
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  bump t (fun t -> t.live_sessions <- t.live_sessions - 1)

(* One accept loop per listener; TCP connections get NODELAY (the
   protocol is small request/response frames — Nagle only adds
   latency). *)
let accept_loop t ~nodelay listen_fd =
  let rec loop () =
    match Unix.accept listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ ->
        (* listening socket closed by [stop] (or unusable): shut down *)
        ()
    | fd, _ ->
        if nodelay then
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
        let session =
          Mutex.lock t.lock;
          t.sessions <- t.sessions + 1;
          t.live_sessions <- t.live_sessions + 1;
          let id = t.sessions in
          Mutex.unlock t.lock;
          id
        in
        let th =
          Thread.create (fun () -> handle_session t ~session fd) ()
        in
        bump t (fun t -> t.client_threads <- th :: t.client_threads);
        loop ()
  in
  loop ()

(** Accept loop(s); blocks until {!stop}. *)
let serve t =
  match t.tcp with
  | None -> accept_loop t ~nodelay:false t.listen_fd
  | Some (tfd, _, _) ->
      let tcp_thread =
        Thread.create (fun () -> accept_loop t ~nodelay:true tfd) ()
      in
      accept_loop t ~nodelay:false t.listen_fd;
      Thread.join tcp_thread

(** Run the accept loop on a background thread (in-process daemon, as
    used by tests and the serve bench). *)
let start t = Thread.create serve t

(** Make {!serve} return: mark stopping and shut the listening sockets
    down. [shutdown] (not just [close]) is what wakes an [accept]
    blocked in another thread. Safe to call from a signal handler —
    no joins, no locks. *)
let interrupt t =
  t.stopping <- true;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  match t.tcp with
  | None -> ()
  | Some (tfd, _, _) -> (
      try Unix.shutdown tfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

(** Stop accepting, drain every in-flight request, then remove the
    socket file — in that order. Session threads are joined first (each
    finishes once its client disconnects and its admitted requests are
    answered — the executors are still running at that point), then the
    executor pool is woken and joined (the queue is necessarily empty),
    and only then does the socket file disappear: a vanished socket
    means no work remains, so a supervisor watching for it cannot
    observe a "stopped" daemon that is still computing. Idempotent. *)
let stop t =
  interrupt t;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.tcp with
  | None -> ()
  | Some (tfd, _, _) -> (
      try Unix.close tfd with Unix.Unix_error _ -> ()));
  let threads =
    Mutex.lock t.lock;
    let ths = t.client_threads in
    t.client_threads <- [];
    Mutex.unlock t.lock;
    ths
  in
  List.iter Thread.join threads;
  let doms =
    Mutex.lock t.jobs_mu;
    let ds = t.executors in
    t.executors <- [];
    Condition.broadcast t.jobs_cv;
    Mutex.unlock t.jobs_mu;
    ds
  in
  List.iter Domain.join doms;
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ())

let socket_path t = t.socket_path
