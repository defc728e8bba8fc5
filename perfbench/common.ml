(* Shared plumbing of the benchmark: clocks, order statistics, process
   and host records, and the one-line JSON result. *)

(* Monotonic, nanosecond resolution: per-call layer timings are a few
   microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted sample: the value at rank
   ceil(p/100 * n). *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: empty sample";
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(Int.max 0 (Int.min (n - 1) (k - 1)))

let median xs = percentile xs 50.0

(* Ops strictly beyond the nearest-rank percentile [p] of [n] samples. *)
let beyond ~n p =
  n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report a length of 0; read them line by line. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in_noerr ic;
        List.rev acc
    in
    go []

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* Peak resident set of a process in MB (VmHWM), 0 when unreadable. *)
let peak_rss_mb ?(pid = "self") () =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> float_of_string kb /. 1024.0
        | [] -> acc)
      | _ -> acc)
    0.0
    (read_lines (Printf.sprintf "/proc/%s/status" pid))

let loadavg () =
  match read_lines "/proc/loadavg" with
  | l :: _ -> (
    match String.split_on_char ' ' l with
    | a :: _ -> float_of_string a
    | [] -> 0.0)
  | [] -> 0.0

(* Filesystem type of the longest mount point that prefixes [path]. *)
let fs_type path =
  let path =
    if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
    else path
  in
  let under mnt =
    mnt = "/"
    || String.length path >= String.length mnt
       && String.sub path 0 (String.length mnt) = mnt
  in
  let best, _ =
    List.fold_left
      (fun (best, len) l ->
        match String.split_on_char ' ' l with
        | _ :: mnt :: fs :: _ when under mnt && String.length mnt > len ->
          (fs, String.length mnt)
        | _ -> (best, len))
      ("unknown", -1)
      (read_lines "/proc/mounts")
  in
  best

let nproc () =
  let n = ref 0 in
  List.iter
    (fun l ->
      if String.length l > 9 && String.sub l 0 9 = "processor" then incr n)
    (read_lines "/proc/cpuinfo");
  if !n = 0 then Domain.recommended_domain_count () else !n

(* A fixed CPU-bound loop timed at the start and the end of a run: a host
   that slowed down shows here, independently of the program under
   test. *)
let reference_loop_ms () =
  let t0 = now () in
  let acc = ref 0.0 in
  for i = 1 to 20_000_000 do
    acc := !acc +. (1.0 /. float_of_int i)
  done;
  let dt = now () -. t0 in
  if !acc <= 0.0 then assert false;
  dt *. 1000.0

module J = Serve.Json

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Diagnostic lines go to stdout before the result, which is always the
   last line. *)
let note key json = Printf.printf "# %s %s\n%!" key (J.to_string json)

let emit ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then J.Num v else J.Num 0.0 in
  let metrics =
    List.map
      (fun { name; value; unit_ } ->
        (name, J.Obj [ ("value", num value); ("unit", J.Str unit_) ]))
      metrics
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ("metrics", J.Obj metrics);
          ]))

let add_counters acc cs =
  List.iter
    (fun (k, v) ->
      Hashtbl.replace acc k (v + try Hashtbl.find acc k with Not_found -> 0))
    cs

(* GC words allocated so far, as the runtime reports them. *)
let gc_snapshot () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words, s.Gc.major_collections)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let count_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

(* Run [bench.exe probe] (one cold set-up) in a fresh process with its
   own scratch directory and return the line it prints. *)
let probe_line ?(extra = [||]) ~workload ~dir () =
  mkdir_p dir;
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.append
         [| Sys.executable_name; "probe"; "--workload"; workload; "--dir"; dir |]
         extra)
  in
  let line = try input_line ic with End_of_file -> "" in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("set-up probe failed: " ^ line));
  rm_rf dir;
  line

(* Bench-owned spans around calls into the program's public functions:
   an Obs span (so a trace shows them) plus the bench's own record of
   each duration, in seconds. *)
let span_times : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let record_span name dt =
  match Hashtbl.find_opt span_times name with
  | Some l -> l := dt :: !l
  | None -> Hashtbl.add span_times name (ref [ dt ])

let span name f =
  let t0 = now () in
  let r = Obs.Span.with_ ~name:("bench." ^ name) f in
  record_span name (now () -. t0);
  r

let span_samples name =
  match Hashtbl.find_opt span_times name with
  | Some l -> Array.of_list !l
  | None -> [||]

let span_median_us name =
  let s = span_samples name in
  if Array.length s = 0 then 0.0 else median s *. 1e6

(* One measured pass over a script. *)
type pass = {
  work : float;  (** Work units completed in the window. *)
  window_s : float;
  lat_ms : float array;  (** Per-op latency, script order. *)
  ok : int;  (** Ops whose outputs passed the checks. *)
  attempted : int;
}

let work_per_s p = p.work /. p.window_s

let tech_of_name name =
  List.find (fun t -> Device.Technology.name t = name) Device.Technology.all

(* Total wall time (ms) of every span named [name] in the current Obs
   profile — the profile tree is the only aggregated view of span
   durations the Obs interface offers. *)
let profile_total_ms name =
  let parse_dur s =
    let num k = float_of_string (String.sub s 0 (String.length s - k)) in
    let ends suf =
      String.length s > String.length suf
      && String.sub s (String.length s - String.length suf) (String.length suf)
         = suf
    in
    if ends "ms" then num 2
    else if ends "us" then num 2 /. 1e3
    else if ends "ns" then num 2 /. 1e6
    else if ends "s" then num 1 *. 1e3
    else 0.0
  in
  List.fold_left
    (fun acc line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | [ label; _count; total; _self ] when label = name -> acc +. parse_dur total
      | _ -> acc)
    0.0
    (String.split_on_char '\n' (Obs.Report.profile ()))

(* Counters of a traced pass, accumulated across {!Obs.reset}s so that
   span buffers never grow with the script length. *)
let traced_counters : (string, int) Hashtbl.t = Hashtbl.create 64

let join_wait_ms = ref 0.0

let harvest () =
  join_wait_ms := !join_wait_ms +. profile_total_ms "pool.join";
  add_counters traced_counters (Obs.counters ());
  Obs.reset ()

let tc name = float_of_int (try Hashtbl.find traced_counters name with Not_found -> 0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Cold set-ups measured per run; setup_s is their median. The host
   alternates between fast and slow phases of about a second, so the
   set-ups are spaced out to sample several phases rather than one. *)
let probes = 9

let probe_gap_s = 0.25

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  dir : string;  (** Scratch directory of this run, inside the checkout. *)
}

(* What a workload hands back: its untraced pass and, when traced, the
   per-layer metrics of a second, traced pass over the same script. *)
type outcome = {
  pass : pass;
  rss_mb : float;
  tail_pct : float;
  layers : metric list;
}

(* Tracing overhead: traced vs untraced work rate, in percent. *)
let overhead_pct ~untraced ~traced =
  100.0 *. (work_per_s untraced -. work_per_s traced) /. work_per_s untraced

let gc_layers ~work (mw0, jw0, mc0) (mw1, jw1, mc1) =
  [
    m "gc.minor_words_per_work" "words" ((mw1 -. mw0) /. work);
    m "gc.major_words_per_work" "words" ((jw1 -. jw0) /. work);
    m "gc.major_collections" "count" (float_of_int (mc1 - mc0));
  ]

(* Layer counters shared by the workloads, read through [count] from
   whichever process ran the layer. *)
let pool_solver_layers count =
  let solves = count "opt.solves" in
  [
    m "pool.maps" "count" (count "pool.maps");
    m "pool.tasks" "count" (count "pool.tasks");
    m "pool.items" "count" (count "pool.items");
    m "solver.solves" "count" solves;
    m "solver.brent_iters_per_solve" "count" (ratio (count "opt.brent_iters") solves);
    m "solver.grid_evals_per_solve" "count" (ratio (count "opt.grid_evals") solves);
    m "solver.seed_fallbacks" "count" (count "opt.seed_fallbacks");
  ]

let store_cert_layers count =
  let hits = count "store.hit" and misses = count "store.miss" in
  [
    m "cert.boxes" "count" (count "cert.boxes");
    m "cert.splits" "count" (count "cert.splits");
    m "cert.prunes" "count" (count "cert.prunes");
    m "store.hit" "count" hits;
    m "store.miss" "count" misses;
    m "store.put" "count" (count "store.put");
    m "store.flush" "count" (count "store.flush");
    m "store.hit_frac" "fraction" (ratio hits (hits +. misses));
  ]
