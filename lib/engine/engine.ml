(* Measurement-engine substrate: content-addressed memo tables with
   observable counters, a deterministic Domain worker pool, and the
   two-tier cached job API (see engine.mli for the contract). *)

module Stats = struct
  type counter = { hits : int; misses : int; dedups : int }
  type event = [ `Hit | `Miss | `Dedup ]
  type t = Util.Counters.t

  let create = Util.Counters.create

  let bump t name (event : event) =
    let field =
      match event with `Hit -> "/hits" | `Miss -> "/misses" | `Dedup -> "/dedups"
    in
    Util.Counters.add t ("engine/" ^ name ^ field) 1

  (* A view over the [engine/<cache>/<field>] rows. *)
  let snapshot t =
    let rows = Util.Counters.rows ~prefix:"engine/" t in
    let get name field =
      Option.value ~default:0 (List.assoc_opt ("engine/" ^ name ^ field) rows)
    in
    List.map (fun (row, _) -> String.sub row 7 (String.rindex row '/' - 7)) rows
    |> List.sort_uniq String.compare
    |> List.map (fun name ->
           ( name,
             {
               hits = get name "/hits";
               misses = get name "/misses";
               dedups = get name "/dedups";
             } ))

  let total t =
    List.fold_left
      (fun acc (_, c) ->
        {
          hits = acc.hits + c.hits;
          misses = acc.misses + c.misses;
          dedups = acc.dedups + c.dedups;
        })
      { hits = 0; misses = 0; dedups = 0 }
      (snapshot t)
end

(* Persistent content-addressed artifact store: a cache directory of
   write-once entries published by atomic write-then-rename, each
   carrying a format-version stamp, its full key and a payload checksum
   so stale or damaged entries self-invalidate on read instead of ever
   being trusted. Values are opaque byte strings (the Memo layer above
   handles (de)serialization); keys are the same content addresses the
   in-memory tables use. Safe under concurrent writers in separate
   domains or separate processes: a half-written temp file is never
   visible under its final name, so the worst a race costs is a
   recomputation. *)
module Disk_store = struct
  let format_version = 1

  (* Observability seam: the instantiation (Measure_engine) installs a
     polymorphic wrapper that brackets every store I/O in an [Obs] span
     and counter without this library depending on lib/obs. *)
  type io_wrap = {
    wrap : 'a. string -> (string * string) list -> (unit -> 'a) -> 'a;
  }

  let io_wrap : io_wrap option ref = ref None
  let set_io_wrap w = io_wrap := w

  let wrapped name args f =
    match !io_wrap with None -> f () | Some w -> w.wrap name args f

  type t = {
    root : string;
    schema : string;
    max_bytes : int;
    mutex : Mutex.t;
    mutable size : int;  (** approximate: concurrent processes drift it *)
    counters : Util.Counters.t;
        (** [store/<cache>/<field>] rows: hits, misses, writes, corrupt
            (truncated / bit-flipped / undecodable), stale (version or
            schema mismatch), evicted (this handle's LRU/gc removals),
            evicted_ext (entries this handle published that another
            process evicted), write_errors (puts failed on I/O) *)
    written : (string, unit) Hashtbl.t;
        (** entry paths this handle published (and has not itself
            removed): a later disk miss on one of them means another
            process evicted it — the cross-process eviction signal *)
  }

  let default_max_bytes = 512 * 1024 * 1024

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let note t cache field =
    Util.Counters.add t.counters ("store/" ^ cache ^ "/" ^ field) 1

  let objects_dir t = Filename.concat t.root "objects"
  let tmp_dir t = Filename.concat t.root "tmp"

  let rec mkdir_p dir =
    if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
    else begin
      mkdir_p (Filename.dirname dir);
      try Sys.mkdir dir 0o755 with Sys_error _ -> ()
    end

  let readdir_sorted dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        entries
    | exception Sys_error _ -> [||]

  let is_dir d = try Sys.is_directory d with Sys_error _ -> false

  (* Every published entry, deterministically ordered:
     [f acc ~cache path]. *)
  let fold_entries t f acc =
    Array.fold_left
      (fun acc cache ->
        let cdir = Filename.concat (objects_dir t) cache in
        if not (is_dir cdir) then acc
        else
          Array.fold_left
            (fun acc shard ->
              let sdir = Filename.concat cdir shard in
              if not (is_dir sdir) then acc
              else
                Array.fold_left
                  (fun acc file -> f acc ~cache (Filename.concat sdir file))
                  acc (readdir_sorted sdir))
            acc (readdir_sorted cdir))
      acc
      (readdir_sorted (objects_dir t))

  let file_size path =
    try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

  let file_mtime path =
    try (Unix.stat path).Unix.st_mtime with Unix.Unix_error _ -> 0.0

  let scan_size t = fold_entries t (fun acc ~cache:_ p -> acc + file_size p) 0

  let create ?(max_bytes = default_max_bytes) ?(schema = "") ~dir () =
    mkdir_p (Filename.concat dir "objects");
    mkdir_p (Filename.concat dir "tmp");
    let t =
      {
        root = dir;
        schema;
        max_bytes = max 1 max_bytes;
        mutex = Mutex.create ();
        size = 0;
        counters = Util.Counters.create ();
        written = Hashtbl.create 64;
      }
    in
    t.size <- scan_size t;
    t

  let dir t = t.root

  let entry_path t ~cache ~key =
    let digest = Digest.to_hex (Digest.string key) in
    Filename.concat
      (Filename.concat (Filename.concat (objects_dir t) cache)
         (String.sub digest 0 2))
      digest

  (* On-disk entry layout (everything length-prefixed by the header
     line, so a parse can only succeed on a byte-exact document):

       DTSTORE1 <version> <schema-len> <key-len> <payload-len> <md5(payload)>\n
       <schema>\n
       <key>\n
       <payload>                                        (end of file)   *)

  type bad = Corrupt | Stale | Other_key

  exception Bad of bad

  let read_entry t ?expect_key path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let fail b = raise (Bad b) in
    let header =
      match input_line ic with
      | line -> line
      | exception End_of_file -> fail Corrupt
    in
    match String.split_on_char ' ' header with
    | [ magic; ver; slen; klen; plen; sum ] ->
        if magic <> "DTSTORE1" then fail Corrupt;
        let int s =
          match int_of_string_opt s with
          | Some n when n >= 0 -> n
          | _ -> fail Corrupt
        in
        let ver = int ver
        and slen = int slen
        and klen = int klen
        and plen = int plen in
        let really n =
          match really_input_string ic n with
          | s -> s
          | exception End_of_file -> fail Corrupt
        in
        let newline () =
          match input_char ic with
          | '\n' -> ()
          | _ -> fail Corrupt
          | exception End_of_file -> fail Corrupt
        in
        let schema = really slen in
        newline ();
        if ver <> format_version || schema <> t.schema then fail Stale;
        let key = really klen in
        newline ();
        (match expect_key with
        | Some k when k <> key -> fail Other_key
        | _ -> ());
        let payload = really plen in
        let at_eof =
          match input_char ic with
          | _ -> false
          | exception End_of_file -> true
        in
        if not at_eof then fail Corrupt;
        if Digest.to_hex (Digest.string payload) <> sum then fail Corrupt;
        payload
    | _ -> fail Corrupt

  (* Remove an entry, keeping the size estimate in step. Assumes the
     lock is NOT held. *)
  let remove_entry t path =
    let bytes = file_size path in
    match Sys.remove path with
    | () ->
        locked t (fun () ->
            t.size <- max 0 (t.size - bytes);
            Hashtbl.remove t.written path)
    | exception Sys_error _ -> ()

  (* LRU eviction to ~7/8 of the bound (amortizes rescans). Assumes the
     lock is held; rescans the directory so concurrent processes'
     entries are accounted. *)
  let evict_locked t =
    let entries =
      fold_entries t
        (fun acc ~cache p -> (file_mtime p, p, cache, file_size p) :: acc)
        []
    in
    t.size <- List.fold_left (fun a (_, _, _, s) -> a + s) 0 entries;
    if t.size > t.max_bytes then begin
      let target = t.max_bytes * 7 / 8 in
      List.iter
        (fun (mtime, path, cache, bytes) ->
          if t.size > target then
            (* Re-stat before removing: between the scan above and this
               removal another process may have republished the entry
               (tmp+rename) or refreshed its LRU clock with a hit — the
               scanned mtime is then stale, and deleting a freshly
               written or freshly used entry is the one eviction-vs-
               writer race that actually hurts. A newer mtime means the
               entry earned a later LRU position; leave it alone. *)
            if file_mtime path > mtime then ()
            else
              match Sys.remove path with
              | () ->
                  t.size <- max 0 (t.size - bytes);
                  Hashtbl.remove t.written path;
                  note t cache "evicted"
              | exception Sys_error _ -> ())
        (List.sort compare entries)
    end

  let tmp_seq = Atomic.make 0

  let put t ~cache ~key data =
    wrapped "store:put" [ ("cache", cache) ] @@ fun () ->
    let path = entry_path t ~cache ~key in
    let tmp =
      Filename.concat (tmp_dir t)
        (Printf.sprintf "%d-%d.tmp" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_seq 1))
    in
    (* A failed write (disk full, permissions, racing eviction) must
       never fail the measurement — the store degrades to a miss — but it
       is counted, and its temp file removed. *)
    try
      mkdir_p (Filename.dirname path);
      mkdir_p (tmp_dir t);
      let oc = open_out_bin tmp in
      let bytes =
        Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
        let header =
          Printf.sprintf "DTSTORE1 %d %d %d %d %s\n" format_version
            (String.length t.schema) (String.length key) (String.length data)
            (Digest.to_hex (Digest.string data))
        in
        output_string oc header;
        output_string oc t.schema;
        output_char oc '\n';
        output_string oc key;
        output_char oc '\n';
        output_string oc data;
        String.length header + String.length t.schema + String.length key
        + String.length data + 2
      in
      let replaced = file_size path in
      Sys.rename tmp path;
      locked t (fun () ->
          note t cache "writes";
          Hashtbl.replace t.written path ();
          t.size <- max 0 (t.size + bytes - replaced);
          if t.size > t.max_bytes then evict_locked t)
    with Sys_error _ | Unix.Unix_error _ ->
      (try Sys.remove tmp with Sys_error _ -> ());
      note t cache "write_errors"

  let get t ~cache ~key =
    wrapped "store:get" [ ("cache", cache) ] @@ fun () ->
    let path = entry_path t ~cache ~key in
    if not (Sys.file_exists path) then begin
      note t cache "misses";
      (* A miss on an entry we ourselves published (and did not remove)
         means another process's eviction took it: the cross-process
         eviction signal, counted separately from our own LRU work. *)
      locked t (fun () ->
          if Hashtbl.mem t.written path then begin
            Hashtbl.remove t.written path;
            note t cache "evicted_ext"
          end);
      None
    end
    else
      match read_entry t ~expect_key:key path with
      | payload ->
          note t cache "hits";
          (* LRU clock: a hit refreshes the entry's mtime. *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          Some payload
      | exception Bad Other_key ->
          (* An md5 collision between distinct keys: not our entry, so
             leave it alone and recompute. *)
          note t cache "misses";
          None
      | exception Bad Stale ->
          remove_entry t path;
          note t cache "stale";
          None
      | exception Bad Corrupt ->
          remove_entry t path;
          note t cache "corrupt";
          None
      | exception _ ->
          note t cache "misses";
          None

  (* The caller decoded a checksummed payload and failed — a schema
     drift the version stamp did not capture. Evict and count. *)
  let invalidate t ~cache ~key =
    remove_entry t (entry_path t ~cache ~key);
    note t cache "corrupt"

  let remove_tmp t ~max_age =
    let now = Unix.time () in
    Array.iter
      (fun f ->
        let p = Filename.concat (tmp_dir t) f in
        if now -. file_mtime p > max_age then
          try Sys.remove p with Sys_error _ -> ())
      (readdir_sorted (tmp_dir t))

  let clear t =
    locked t @@ fun () ->
    let n =
      fold_entries t
        (fun acc ~cache:_ p ->
          match Sys.remove p with
          | () -> acc + 1
          | exception Sys_error _ -> acc)
        0
    in
    (* Prune the now-empty shard/cache directories (best-effort). *)
    Array.iter
      (fun cache ->
        let cdir = Filename.concat (objects_dir t) cache in
        Array.iter
          (fun shard ->
            try Sys.rmdir (Filename.concat cdir shard) with Sys_error _ -> ())
          (readdir_sorted cdir);
        try Sys.rmdir cdir with Sys_error _ -> ())
      (readdir_sorted (objects_dir t));
    remove_tmp t ~max_age:(-1.0);
    Hashtbl.reset t.written;
    t.size <- 0;
    n

  (* Full maintenance sweep: drop stale / corrupt entries, enforce the
     size bound, remove abandoned temp files. Returns how many entries
     were removed. *)
  let gc t =
    wrapped "store:gc" [] @@ fun () ->
    locked t @@ fun () ->
    let removed = ref 0 in
    fold_entries t
      (fun () ~cache path ->
        match read_entry t path with
        | (_ : string) -> ()
        | exception Bad (Stale | Corrupt) | exception Sys_error _ ->
            let bytes = file_size path in
            (match Sys.remove path with
            | () ->
                incr removed;
                t.size <- max 0 (t.size - bytes);
                Hashtbl.remove t.written path;
                note t cache "evicted"
            | exception Sys_error _ -> ())
        | exception Bad Other_key -> assert false)
      ();
    t.size <- scan_size t;
    if t.size > t.max_bytes then evict_locked t;
    remove_tmp t ~max_age:900.0;
    !removed

  let entry_count t = fold_entries t (fun acc ~cache:_ _ -> acc + 1) 0
  let size_bytes t = locked t (fun () -> t.size)

  (** Per-cache [(name, entries, bytes)], sorted by cache name. *)
  let summary t =
    let tbl = Hashtbl.create 8 in
    fold_entries t
      (fun () ~cache p ->
        let n, b =
          Option.value ~default:(0, 0) (Hashtbl.find_opt tbl cache)
        in
        Hashtbl.replace tbl cache (n + 1, b + file_size p))
      ();
    Hashtbl.fold (fun cache (n, b) acc -> (cache, n, b) :: acc) tbl []
    |> List.sort compare

  let counters t =
    List.map
      (fun (row, v) -> (String.sub row 6 (String.length row - 6), v))
      (Util.Counters.rows t.counters)
end

module Memo = struct
  type 'a t = {
    mutex : Mutex.t;
    table : (string, 'a) Hashtbl.t;
    stats : Stats.t option;
    name : string;
    store : Disk_store.t option;
  }

  let create ?stats ?store ~name () =
    { mutex = Mutex.create (); table = Hashtbl.create 64; stats; name; store }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let bump t event =
    match t.stats with None -> () | Some s -> Stats.bump s t.name event

  let mem_add t key v =
    locked t (fun () ->
        if not (Hashtbl.mem t.table key) then Hashtbl.replace t.table key v)

  (* Write-through to the disk store. Serialization is [Marshal] on the
     memo's value type — the table's name doubles as the on-disk cache
     name, and the store's schema stamp guards against layout drift. A
     value Marshal rejects (closures) silently stays memory-only. *)
  let disk_put t key v =
    match t.store with
    | None -> ()
    | Some s -> (
        match Marshal.to_string v [] with
        | data -> Disk_store.put s ~cache:t.name ~key data
        | exception _ -> ())

  (* Memory first, then disk; a disk hit is promoted into the memory
     table so repeated lookups stay cheap and physically shared. A
     payload that passes the checksum but fails to decode is a schema
     drift the version stamp missed: evict it and miss. *)
  let find_opt t key =
    match locked t (fun () -> Hashtbl.find_opt t.table key) with
    | Some v -> Some v
    | None -> (
        match t.store with
        | None -> None
        | Some s -> (
            match Disk_store.get s ~cache:t.name ~key with
            | None -> None
            | Some data -> (
                match Marshal.from_string data 0 with
                | v ->
                    mem_add t key v;
                    (* Serve the table's copy: a racing insert may have
                       won, and callers rely on physical sharing. *)
                    locked t (fun () -> Hashtbl.find_opt t.table key)
                | exception _ ->
                    Disk_store.invalidate s ~cache:t.name ~key;
                    None)))

  let add t key v =
    mem_add t key v;
    disk_put t key v

  (* The producer runs outside the lock so other domains can use the
     table meanwhile; a concurrent duplicate computation of the same key
     is harmless because producers are deterministic and [add] keeps the
     first value. *)
  let find_or_add t key produce =
    match find_opt t key with
    | Some v ->
        bump t `Hit;
        v
    | None ->
        bump t `Miss;
        let v = produce () in
        add t key v;
        v

  let length t = locked t (fun () -> Hashtbl.length t.table)
end

module Pool = struct
  type t = { workers : int }

  let recommended_workers () = min 16 (Domain.recommended_domain_count ())

  let create ?(workers = 1) () = { workers = max 1 workers }

  let workers t = t.workers

  let map t f xs =
    let n = List.length xs in
    (* Calls from a worker (an [f] that itself maps, e.g. a per-program
       sweep inside a per-suite map) run sequentially: nested spawning
       would oversubscribe the machine quadratically. *)
    if t.workers <= 1 || n <= 1 || not (Domain.is_main_domain ()) then
      List.map f xs
    else begin
      let items = Array.of_list xs in
      (* Each slot is written by exactly one domain (the one that claimed
         its index) and read only after every join — no data race. *)
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (results.(i) <-
               Some (try Ok (f items.(i)) with e -> Error e));
            loop ()
          end
        in
        loop ()
      in
      let worker =
        match Util.Counters.current () with
        | None -> worker
        | Some scope -> fun () -> Util.Counters.with_scope scope worker
      in
      let domains =
        List.init (min t.workers n) (fun _ -> Domain.spawn worker)
      in
      List.iter Domain.join domains;
      (* Ordered reduction: walk the slots in input order, so the output
         (and any table built from it) is identical to the sequential
         run; the earliest input's exception wins, as List.map's would. *)
      Array.to_list results
      |> List.map (function
           | Some (Ok r) -> r
           | Some (Error e) -> raise e
           | None -> assert false)
    end
end

module type DOMAIN = sig
  type config
  type subject
  type bench_subject
  type binary
  type trace
  type metrics

  val config_key : config -> string
  val subject_ast_key : subject -> string
  val subject_key : subject -> string
  val bench_subject_key : bench_subject -> string
  val binary_key : binary -> string
  val binary_cost_key : binary -> string

  val compile : subject -> config -> binary
  val trace : subject -> binary -> trace
  val metrics : subject -> binary -> trace -> metrics
  val bench_compile : bench_subject -> config -> binary
  val bench_run : bench_subject -> binary -> int
end

module Make (D : DOMAIN) = struct
  type t = {
    pool : Pool.t;
    stats : Stats.t;
    store : Disk_store.t option;
        (** persistent second level behind every memo table *)
    binaries : D.binary Memo.t;  (** tier 1: (AST digest, fingerprint) *)
    bench_binaries : D.binary Memo.t;  (** tier 1 for benchmarks *)
    traces : D.trace Memo.t;  (** tier 2: (subject digest, binary digest) *)
    measures : D.metrics Memo.t;  (** tier 2 *)
    costs : int Memo.t;  (** tier 2, keyed by the coarser cost key *)
  }

  type job =
    | Compile of D.subject * D.config
    | Trace of D.subject * D.config
    | Measure of D.subject * D.config
    | BenchCost of D.bench_subject * D.config

  type result =
    | Binary of D.binary
    | Traced of D.trace * D.binary
    | Measured of D.metrics * D.binary
    | Cost of int

  let create ?workers ?store () =
    let stats = Stats.create () in
    {
      pool = Pool.create ?workers ();
      stats;
      store;
      binaries = Memo.create ~stats ?store ~name:"compile" ();
      bench_binaries = Memo.create ~stats ?store ~name:"bench-compile" ();
      traces = Memo.create ~stats ?store ~name:"trace" ();
      measures = Memo.create ~stats ?store ~name:"measure" ();
      costs = Memo.create ~stats ?store ~name:"bench-cost" ();
    }

  let tier1_key ast_key config = ast_key ^ "/" ^ D.config_key config

  (* Tier-1 lookup that also reports whether the binary was freshly
     compiled — a fresh compile whose binary digest already sits in a
     tier-2 table is a *dedup* (the discard optimization firing), while
     a tier-1 hit followed by a tier-2 hit is a plain cache hit. *)
  let compile_tracked t subject config =
    let key = tier1_key (D.subject_ast_key subject) config in
    let fresh = ref false in
    let bin =
      Memo.find_or_add t.binaries key (fun () ->
          fresh := true;
          D.compile subject config)
    in
    (bin, !fresh)

  let compile t subject config = fst (compile_tracked t subject config)

  (* Planner support (see Measure_engine's prefix planner): [peek]
     checks tier 1 without executing anything or touching the counters —
     the planner uses it to drop already-compiled configs from a sweep
     before grouping the rest by shared prefix. [seed] publishes a
     binary produced outside the engine (an incremental suffix compile)
     under the ordinary tier-1 key, bumping the regular counters, so
     every later [compile]/[trace]/[measure] of that config is a plain
     tier-1 hit. *)
  let peek_compile t subject config =
    Memo.find_opt t.binaries (tier1_key (D.subject_ast_key subject) config)

  let seed_compile t subject config produce =
    Memo.find_or_add t.binaries
      (tier1_key (D.subject_ast_key subject) config)
      produce

  let peek_bench_compile t bench config =
    Memo.find_opt t.bench_binaries
      (tier1_key (D.bench_subject_key bench) config)

  let seed_bench_compile t bench config produce =
    Memo.find_or_add t.bench_binaries
      (tier1_key (D.bench_subject_key bench) config)
      produce

  (* Tier-2 generic lookup with hit/dedup classification. [bin_key]
     picks which binary digest keys the tier (full for debug-quality
     results, code-only for execution cost). *)
  let tier2 t (memo : _ Memo.t) ~subject_key ~bin_key ~bin ~fresh produce =
    let key = subject_key ^ "@" ^ bin_key bin in
    match Memo.find_opt memo key with
    | Some v ->
        Stats.bump t.stats memo.Memo.name (if fresh then `Dedup else `Hit);
        v
    | None ->
        Stats.bump t.stats memo.Memo.name `Miss;
        let v = produce () in
        Memo.add memo key v;
        v

  let trace t subject config =
    let bin, fresh = compile_tracked t subject config in
    let tr =
      tier2 t t.traces ~subject_key:(D.subject_key subject)
        ~bin_key:D.binary_key ~bin ~fresh (fun () -> D.trace subject bin)
    in
    (tr, bin)

  let measure t subject config =
    let bin, fresh = compile_tracked t subject config in
    let m =
      tier2 t t.measures ~subject_key:(D.subject_key subject)
        ~bin_key:D.binary_key ~bin ~fresh (fun () ->
          (* The trace is transient: only its metrics are retained, so a
             full-evaluation run holds one metrics record per distinct
             binary, not one trace (traces are orders of magnitude
             larger). Explicit [Trace] jobs do populate the trace
             tier. *)
          let tr =
            match
              Memo.find_opt t.traces
                (D.subject_key subject ^ "@" ^ D.binary_key bin)
            with
            | Some tr -> tr
            | None -> D.trace subject bin
          in
          D.metrics subject bin tr)
    in
    (m, bin)

  let bench_cost t bench config =
    let key = tier1_key (D.bench_subject_key bench) config in
    let fresh = ref false in
    let bin =
      Memo.find_or_add t.bench_binaries key (fun () ->
          fresh := true;
          D.bench_compile bench config)
    in
    tier2 t t.costs ~subject_key:(D.bench_subject_key bench)
      ~bin_key:D.binary_cost_key ~bin ~fresh:!fresh (fun () ->
        D.bench_run bench bin)

  let run t = function
    | Compile (s, c) -> Binary (compile t s c)
    | Trace (s, c) ->
        let tr, bin = trace t s c in
        Traced (tr, bin)
    | Measure (s, c) ->
        let m, bin = measure t s c in
        Measured (m, bin)
    | BenchCost (b, c) -> Cost (bench_cost t b c)

  let map t f xs = Pool.map t.pool f xs
  let workers t = Pool.workers t.pool
  let stats t = t.stats
  let store t = t.store
  let memo t ~name () = Memo.create ~stats:t.stats ?store:t.store ~name ()
end
