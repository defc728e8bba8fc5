(* Per-domain recording, merged at report time.

   Hot-path contract: while disabled, every public recording entry point
   returns after one Atomic.get and one conditional jump. Everything even
   slightly costly (DLS lookup, hashtable access, timestamping) happens
   behind that branch. *)

let on = Atomic.make false
let set_enabled v = Atomic.set on v
let enabled () = Atomic.get on
let now_ns () = Unix.gettimeofday () *. 1e9

(* Completed span: [path_rev] is leaf-first (the leaf is the span's own
   name); reversing it yields the root-first aggregation path. *)
type span = {
  path_rev : string list;
  s_cat : string;
  attrs : (string * string) list;
  domain : int;
  start_ns : float;
  dur_ns : float;
}

type hcell = {
  mutable h_n : int;
  mutable h_s : float;
  mutable h_mn : float;
  mutable h_mx : float;
}

type local = {
  dom : int;
  mutable spans : span list; (* most recent first *)
  lcounters : (string, int ref) Hashtbl.t;
  lhists : (string, hcell) Hashtbl.t;
  mutable stack_rev : string list;
}

(* Registry of every domain-local buffer ever created. Mutated only on the
   first recording in a new domain and by [reset]; recording itself is
   lock-free. *)
let registry_mutex = Mutex.create ()
let registry : local list ref = ref []
let epoch_ns = ref 0.0

(* Metric name -> category, so reports can filter without each local
   duplicating the metadata. Registered once per handle at module init. *)
let cats : (string, string) Hashtbl.t = Hashtbl.create 64

let register_cat name cat =
  Mutex.lock registry_mutex;
  if not (Hashtbl.mem cats name) then Hashtbl.add cats name cat;
  Mutex.unlock registry_mutex

let cat_of name = match Hashtbl.find_opt cats name with Some c -> c | None -> ""

let key : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let l =
        {
          dom = (Domain.self () :> int);
          spans = [];
          lcounters = Hashtbl.create 32;
          lhists = Hashtbl.create 8;
          stack_rev = [];
        }
      in
      Mutex.lock registry_mutex;
      registry := l :: !registry;
      Mutex.unlock registry_mutex;
      l)

let local () = Domain.DLS.get key

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun l ->
      l.spans <- [];
      Hashtbl.reset l.lcounters;
      Hashtbl.reset l.lhists)
    !registry;
  epoch_ns := now_ns ();
  Mutex.unlock registry_mutex

module Span = struct
  type ctx = string list (* leaf-first, like [stack_rev] *)

  let empty : ctx = []

  let record l ~path_rev ~cat ~attrs ~t0 =
    l.spans <-
      {
        path_rev;
        s_cat = cat;
        attrs;
        domain = l.dom;
        start_ns = t0;
        dur_ns = now_ns () -. t0;
      }
      :: l.spans

  let with_ ?(cat = "") ?(attrs = []) ~name f =
    if not (Atomic.get on) then f ()
    else begin
      let l = local () in
      let saved = l.stack_rev in
      let path_rev = name :: saved in
      l.stack_rev <- path_rev;
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          record l ~path_rev ~cat ~attrs ~t0;
          l.stack_rev <- saved)
        f
    end

  let with_detached ?(cat = "") ?(attrs = []) ~name f =
    if not (Atomic.get on) then f ()
    else begin
      let l = local () in
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () -> record l ~path_rev:[ name ] ~cat ~attrs ~t0)
        f
    end

  let current () = if not (Atomic.get on) then [] else (local ()).stack_rev

  let with_ctx ctx f =
    if not (Atomic.get on) then f ()
    else begin
      let l = local () in
      let saved = l.stack_rev in
      l.stack_rev <- ctx;
      Fun.protect ~finally:(fun () -> l.stack_rev <- saved) f
    end
end

module Counter = struct
  type t = string

  let make ?(cat = "") name =
    register_cat name cat;
    name

  let add name n =
    if Atomic.get on then begin
      let l = local () in
      match Hashtbl.find_opt l.lcounters name with
      | Some r -> r := !r + n
      | None -> Hashtbl.add l.lcounters name (ref n)
    end

  let incr name = add name 1
end

module Hist = struct
  type t = string

  let make ?(cat = "") name =
    register_cat name cat;
    name

  let observe name v =
    if Atomic.get on then begin
      let l = local () in
      match Hashtbl.find_opt l.lhists name with
      | Some h ->
        h.h_n <- h.h_n + 1;
        h.h_s <- h.h_s +. v;
        if v < h.h_mn then h.h_mn <- v;
        if v > h.h_mx then h.h_mx <- v
      | None -> Hashtbl.add l.lhists name { h_n = 1; h_s = v; h_mn = v; h_mx = v }
    end
end

type hist_summary = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
}

let locals () =
  Mutex.lock registry_mutex;
  let ls = !registry in
  Mutex.unlock registry_mutex;
  ls

let hidden_when_normalized cat = cat = "sched" || cat = "cache"

let counters ?(normalize = false) () =
  let merged : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun l ->
      Hashtbl.iter
        (fun name r ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt merged name) in
          Hashtbl.replace merged name (prev + !r))
        l.lcounters)
    (locals ());
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) merged []
  |> List.filter (fun (name, v) ->
         v <> 0 && not (normalize && hidden_when_normalized (cat_of name)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters_prefixed ?normalize prefix =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix name)
    (counters ?normalize ())

let counter_value name =
  List.fold_left
    (fun acc l ->
      match Hashtbl.find_opt l.lcounters name with
      | Some r -> acc + !r
      | None -> acc)
    0 (locals ())

let histograms ?(normalize = false) () =
  let merged : (string, hist_summary) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun l ->
      Hashtbl.iter
        (fun name (h : hcell) ->
          let s =
            match Hashtbl.find_opt merged name with
            | None ->
              { h_count = h.h_n; h_sum = h.h_s; h_min = h.h_mn; h_max = h.h_mx }
            | Some s ->
              {
                h_count = s.h_count + h.h_n;
                h_sum = s.h_sum +. h.h_s;
                h_min = Float.min s.h_min h.h_mn;
                h_max = Float.max s.h_max h.h_mx;
              }
          in
          Hashtbl.replace merged name s)
        l.lhists)
    (locals ());
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) merged []
  |> List.filter (fun (name, s) ->
         s.h_count > 0 && not (normalize && hidden_when_normalized (cat_of name)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module Report = struct
  let all_spans () = List.concat_map (fun l -> l.spans) (locals ())

  (* Aggregation node of the profile tree, keyed by root-first name path. *)
  type node = {
    name : string;
    mutable count : int;
    mutable total : float;
    children : (string, node) Hashtbl.t;
  }

  let new_node name = { name; count = 0; total = 0.0; children = Hashtbl.create 4 }

  let build_tree ~normalize spans =
    let root = new_node "" in
    List.iter
      (fun s ->
        if not (normalize && hidden_when_normalized s.s_cat) then begin
          let node =
            List.fold_left
              (fun n name ->
                match Hashtbl.find_opt n.children name with
                | Some c -> c
                | None ->
                  let c = new_node name in
                  Hashtbl.add n.children name c;
                  c)
              root
              (List.rev s.path_rev)
          in
          node.count <- node.count + 1;
          node.total <- node.total +. s.dur_ns
        end)
      spans;
    root

  let pretty_ns ns =
    if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
    else Printf.sprintf "%.0fns" ns

  let children_sorted ~normalize node =
    let cs = Hashtbl.fold (fun _ c acc -> c :: acc) node.children [] in
    if normalize then
      List.sort (fun a b -> String.compare a.name b.name) cs
    else
      List.sort
        (fun a b ->
          match Float.compare b.total a.total with
          | 0 -> String.compare a.name b.name
          | c -> c)
        cs

  let render_tree ~normalize buffer root =
    let rec walk depth node =
      let label = String.make (2 * depth) ' ' ^ node.name in
      let child_total =
        Hashtbl.fold (fun _ c acc -> acc +. c.total) node.children 0.0
      in
      if normalize then
        Buffer.add_string buffer
          (Printf.sprintf "%-52s %8d\n" label node.count)
      else begin
        let self = Float.max 0.0 (node.total -. child_total) in
        Buffer.add_string buffer
          (Printf.sprintf "%-52s %8d %11s %11s\n" label node.count
             (pretty_ns node.total) (pretty_ns self))
      end;
      List.iter (walk (depth + 1)) (children_sorted ~normalize node)
    in
    List.iter (walk 0) (children_sorted ~normalize root)

  let profile ?(normalize = false) () =
    let buffer = Buffer.create 1024 in
    let root = build_tree ~normalize (all_spans ()) in
    if normalize then
      Buffer.add_string buffer (Printf.sprintf "%-52s %8s\n" "span" "count")
    else
      Buffer.add_string buffer
        (Printf.sprintf "%-52s %8s %11s %11s\n" "span" "count" "total" "self");
    render_tree ~normalize buffer root;
    (match counters ~normalize () with
    | [] -> ()
    | cs ->
      Buffer.add_string buffer "\ncounters:\n";
      List.iter
        (fun (name, v) ->
          Buffer.add_string buffer (Printf.sprintf "  %-50s %12d\n" name v))
        cs);
    (match histograms ~normalize () with
    | [] -> ()
    | hs ->
      Buffer.add_string buffer "\nhistograms (count / mean / min / max):\n";
      List.iter
        (fun (name, s) ->
          Buffer.add_string buffer
            (Printf.sprintf "  %-38s %8d %11s %11s %11s\n" name s.h_count
               (pretty_ns (s.h_sum /. float_of_int s.h_count))
               (pretty_ns s.h_min) (pretty_ns s.h_max)))
        hs);
    Buffer.contents buffer

  let root_total_ns () =
    List.fold_left
      (fun acc s ->
        match s.path_rev with
        | [ _ ] when s.s_cat <> "sched" -> acc +. s.dur_ns
        | _ -> acc)
      0.0 (all_spans ())

  (* Chrome trace_event JSON. *)

  let json_string s = Json.to_string (Json.Str s)

  let chrome_trace () =
    let spans =
      List.sort
        (fun a b ->
          match Float.compare a.start_ns b.start_ns with
          | 0 -> compare (a.domain, a.path_rev) (b.domain, b.path_rev)
          | c -> c)
        (all_spans ())
    in
    let epoch = !epoch_ns in
    let buffer = Buffer.create 4096 in
    Buffer.add_string buffer "{\"traceEvents\":[";
    let first = ref true in
    let emit s =
      if !first then first := false else Buffer.add_char buffer ',';
      Buffer.add_string buffer "\n";
      Buffer.add_string buffer s
    in
    List.iter
      (fun s ->
        let name = match s.path_rev with n :: _ -> n | [] -> "?" in
        let args =
          if s.attrs = [] then ""
          else
            ",\"args\":"
            ^ Json.to_string
                (Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.attrs))
        in
        emit
          (Printf.sprintf
             "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d%s}"
             (json_string name)
             (json_string (if s.s_cat = "" then "span" else s.s_cat))
             ((s.start_ns -. epoch) /. 1e3)
             (s.dur_ns /. 1e3) s.domain args))
      spans;
    let end_ts = ref 0.0 in
    List.iter
      (fun s ->
        end_ts := Float.max !end_ts ((s.start_ns -. epoch +. s.dur_ns) /. 1e3))
      spans;
    List.iter
      (fun (name, v) ->
        emit
          (Printf.sprintf
             "{\"name\":%s,\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"args\":{\"value\":%d}}"
             (json_string name) !end_ts v))
      (counters ());
    Buffer.add_string buffer "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents buffer

  let write_chrome_trace ~path () =
    let oc = open_out path in
    output_string oc (chrome_trace ());
    close_out oc
end
