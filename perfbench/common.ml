(* Shared measurement machinery: the CPU clock, order statistics, the
   span recorder behind every per-layer number, and the result record
   each workload fills in. *)

module C = Chorev

(* CPU seconds of this process (user + system). The benchmark runs one
   domain, so this is the work done, not the scheduler's share. *)
let cpu = Sys.time

let ms_of_s s = s *. 1000.

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of [p] in (0,1). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float n)) - 1)))

(* The tail percentiles the benchmark may report, highest last. A
   workload reports the highest one that leaves at least ten samples
   beyond it; it is fixed per workload because the op count is. *)
let tail_ladder = [ 0.6; 0.75; 0.9; 0.95; 0.99; 0.999 ]

let samples_beyond n p =
  n - int_of_float (Float.ceil (p *. float n))

let tail_percentile n =
  List.fold_left
    (fun acc p -> if samples_beyond n p >= 10 then Some p else acc)
    None tail_ladder

let tail_name n =
  match tail_percentile n with
  | Some p -> Printf.sprintf "p%g" (p *. 100.)
  | None -> "none"

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* One closed span: its name, its CPU interval, and the CPU time its
   direct children covered. Spans on one domain nest, so the children
   of a span never overlap and their union is their sum. *)
type closed = { name : string; start : float; stop : float; child : float }

let self_time s = s.stop -. s.start -. s.child

(* A recorder turns a properly nested open/close stream into closed
   spans. The library's spans arrive through [sink]; the benchmark's
   own spans around calls into a layer go through [span]. Both read the
   same clock, so they nest into one tree. *)
type recorder = {
  clock : unit -> float;
  mutable stack : (string * float * float ref) list;
  mutable closed : closed list;
}

let recorder ?(clock = cpu) () = { clock; stack = []; closed = [] }

let open_ r name = r.stack <- (name, r.clock (), ref 0.) :: r.stack

let close_ r =
  match r.stack with
  | [] -> invalid_arg "Common.close_: no open span"
  | (name, start, child) :: rest ->
      let stop = r.clock () in
      r.stack <- rest;
      (match rest with
      | (_, _, parent_child) :: _ ->
          parent_child := !parent_child +. (stop -. start)
      | [] -> ());
      r.closed <- { name; start; stop; child = !child } :: r.closed

let span r name f =
  open_ r name;
  Fun.protect ~finally:(fun () -> close_ r) f

(* How a pass runs a call into a layer: plainly, or inside a span. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let plain = { wrap = (fun _ f -> f ()) }
let spans r = { wrap = (fun name f -> span r name f) }

let sink r =
  {
    C.Obs.Sink.emit =
      (function
      | C.Obs.Sink.Open (s, _) -> open_ r s.C.Obs.Sink.name
      | C.Obs.Sink.Close _ -> close_ r);
    flush = ignore;
  }

(* Self time per layer: [layer_of] maps a span name to its layer. *)
let self_by_layer ~layer_of closed =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = layer_of s.name in
      let t = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l (t +. self_time s))
    closed;
  tbl

let total_self closed =
  List.fold_left (fun acc s -> acc +. self_time s) 0. closed

(* The window minus every self time: the part of the window no span
   accounts for (the benchmark's own loop, and code outside any
   layer's span). *)
let unattributed ~window closed = window -. total_self closed

(* ------------------------------------------------------------------ *)
(* Library counters and the allocation count                           *)
(* ------------------------------------------------------------------ *)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (C.Obs.Metrics.counters ()))

let ratio num den = if den = 0 then 0. else float num /. float den

(* Words allocated on this domain's minor heap so far. Exact on OCaml
   5.1, unlike [Gc.quick_stat], which advances only at a minor
   collection. *)
let minor_words () = Gc.minor_words ()

let heap_peak_mb () =
  float (Gc.quick_stat ()).Gc.top_heap_words
  *. float (Sys.word_size / 8)
  /. 1048576.

(* Bytes and write syscalls of this process so far, from /proc. *)
let proc_io () =
  match open_in "/proc/self/io" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      let rec loop w s =
        match input_line ic with
        | exception End_of_file -> (w, s)
        | line -> (
            match String.split_on_char ':' line with
            | [ "wchar"; v ] -> loop (int_of_string (String.trim v)) s
            | [ "syscw"; v ] -> loop w (int_of_string (String.trim v))
            | _ -> loop w s)
      in
      let r = loop 0 0 in
      close_in ic;
      r

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  extras : (string * string) list;
      (* printed, never gated: wall-clock times, per-class counts *)
}

(* The end-to-end metrics every workload reports: set-up time, rate,
   median and tail CPU per op, and the peak OCaml heap. Called after the
   heap is read: sorting boxes a data-dependent number of floats, which
   would move the heap peak from run to run. *)
let end_to_end ~setup ~work ~timed_s ~op_ms ~heap_mb =
  let n = Array.length op_ms in
  let tail =
    match tail_percentile n with
    | Some p -> [ m "tail_cpu_ms" "ms" (percentile op_ms p) ]
    | None -> []
  in
  [
    m "setup_s" "s" (median setup);
    m "ops_per_cpu_s" "1/s" (work /. timed_s);
    m "p50_cpu_ms" "ms" (median op_ms);
  ]
  @ tail
  @ [ m "heap_peak_mb" "MB" heap_mb ]

(* One sample of a set-up's CPU seconds: the mean of [batch]
   repetitions, so that a set-up of a few microseconds is not read in
   whole clock ticks; [prepare] runs untimed before each repetition (a
   cache reset, say). Each sample starts with [prepare] and a full
   major collection (untimed), as a fresh process's set-up starts on an
   empty heap: GC work left over from the ops or checks before it, or
   from the first cache reset after them, would otherwise be charged to
   the set-up, in amounts that differ from seed to seed.
   [end_to_end] reports the median of the samples. *)
let setup_sample ?(batch = 1) ~prepare f =
  prepare ();
  Gc.compact ();
  let total = ref 0. in
  for _ = 1 to batch do
    prepare ();
    let t0 = cpu () in
    ignore (Sys.opaque_identity (f ()));
    total := !total +. (cpu () -. t0)
  done;
  !total /. float batch

let time_setup ~reps ~prepare f = Array.init reps (fun _ -> setup_sample ~prepare f)

(* Runs [check i] for [i] in [0, n) with [reps] calls of [sample]
   spread evenly between them, and returns the samples. Workloads that
   check their ops after the timed phase take their set-up samples
   this way, so the median sees the machine over the whole check
   rather than in one short stretch. *)
let between_checks ~reps ~n ~sample check =
  let samples = ref [] in
  for i = 0 to n - 1 do
    for _ = i * reps / n to ((i + 1) * reps / n) - 1 do
      samples := sample () :: !samples
    done;
    check i
  done;
  Array.of_list !samples

(* Deterministic per-op seeds derived from the run seed. *)
let derive seed i = Hashtbl.hash (seed, i, 0x5eed)

(* A fresh scratch directory inside the working directory. *)
let scratch_root = ".perfbench_tmp"

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let fresh_dir name =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  let d = Filename.concat scratch_root name in
  rm_rf d;
  d
