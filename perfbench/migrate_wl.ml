(* migrate_100k: the default [tracking] plan of [chorev migrate] —
   100k instances over two buyer versions, migrated onto [buyer_once],
   batch 1024, memo 65536 — journaled into a fresh directory per op.
   An op is one whole migration; [ops_per_cpu_s] counts instances.
   Public generation happens once, in set-up; each op rebuilds the
   population from the plan, as the CLI does. The population seeds come
   from the run seed; every op of a run migrates the same plan. *)

open Common
module Engine = C.Migrate.Engine
module P = C.Scenario.Procurement

type params = {
  instances : int;
  batch : int;
  memo : int;
  max_len : int;
  ops : int;
  traced_ops : int;
  setup_reps : int;
  setup_batch : int;  (* repetitions averaged in one sample *)
}

(* At least 26 ops, so a percentile above the median (p60) keeps ten
   samples beyond it. *)
let params ~seconds =
  {
    instances = 100_000;
    batch = 1024;
    memo = 65_536;
    max_len = 12;
    ops = max 26 seconds;
    traced_ops = 3;
    setup_reps = 51;
    setup_batch = 10;
  }

let describe p =
  [
    ("scenario", "tracking");
    ("instances", string_of_int p.instances);
    ("batch", string_of_int p.batch);
    ("memo_capacity", string_of_int p.memo);
    ("max_len", string_of_int p.max_len);
    ("ops", string_of_int p.ops);
    ("tail", tail_name p.ops);
    ("traced_ops", string_of_int p.traced_ops);
    ("setup_reps", Printf.sprintf "%d x %d" p.setup_reps p.setup_batch);
  ]

(* What a user pays before the first migration: the version history
   and the target as public processes. *)
let setup () =
  let gen = C.Public_gen.public in
  ([ gen P.buyer_process; gen P.buyer_with_cancel ], gen P.buyer_once)

let plan p ~seed (publics, target) =
  let half = p.instances / 2 in
  let pop version count seed prefix =
    { C.Migrate.Population.version; count; seed; max_len = p.max_len; prefix }
  in
  {
    Engine.publics;
    target;
    pops =
      [
        pop 1 half (derive seed 1 mod 1_000_000) "a-";
        pop 2 (p.instances - half) (1_000_000 + (derive seed 2 mod 1_000_000)) "b-";
      ];
    batch_size = p.batch;
    batch_fuel = None;
    memo_capacity = p.memo;
  }

let report_string r = Fmt.str "%a" Engine.pp_report r

let journaled plan i =
  let dir = fresh_dir (Printf.sprintf "migrate-%03d" i) in
  match Engine.run_journaled ~dir plan with
  | Ok r -> (dir, r)
  | Error e -> failwith ("run_journaled: " ^ e)

(* The reference: the in-memory sequential run of the same plan. *)
let in_memory plan =
  let vs = Engine.build_plan plan in
  Engine.run ~options:(Engine.options_of_plan plan) vs plan.Engine.target

let resumed dir =
  match Engine.resume ~dir () with
  | Ok j -> report_string j.Engine.report
  | Error e -> "resume failed: " ^ e

(* Each op starts from a compacted heap, as a fresh [chorev migrate]
   process starts from an empty one, and journals into a directory of
   its own; its report is kept (untimed). [heap_peak_mb] is read right
   after the last op, and only then do the references (the in-memory
   run and the resume of each sealed journal) run, with the set-up
   samples between them, so neither can set the heap's peak. *)
let run p ~seed =
  let plan = plan p ~seed (setup ()) in
  let op_ms = Array.make p.ops 0. and got = Array.make p.ops ("", "") in
  let timed = ref 0. and wall_s = ref 0. in
  for i = 0 to p.ops - 1 do
    Gc.compact ();
    let w0 = Unix.gettimeofday () in
    let t0 = cpu () in
    let dir, r = journaled plan i in
    let dt = cpu () -. t0 in
    wall_s := !wall_s +. (Unix.gettimeofday () -. w0);
    timed := !timed +. dt;
    op_ms.(i) <- ms_of_s dt;
    got.(i) <- (dir, report_string r)
  done;
  let heap_mb = heap_peak_mb () in
  let expected = report_string (in_memory plan) in
  let failed = ref 0 in
  let setup_samples =
    between_checks ~reps:p.setup_reps ~n:p.ops
      ~sample:(fun () -> setup_sample ~batch:p.setup_batch ~prepare:ignore setup)
      (fun i ->
        let dir, r = got.(i) in
        if r <> expected || resumed dir <> expected then incr failed;
        rm_rf dir)
  in
  let wall_s = !wall_s in
  {
    attempted = p.ops;
    failed = !failed;
    metrics =
      end_to_end ~setup:setup_samples
        ~work:(float ((p.ops - !failed) * p.instances))
        ~timed_s:!timed ~op_ms ~heap_mb;
    extras =
      [
        ("wall_s", Printf.sprintf "%.6f" wall_s);
        ("class.migration.n", string_of_int p.ops);
      ];
  }

(* Each traced op runs the three phases separately — the population
   build, the in-memory verdict run, and the journaled run of the same
   plan — so the journal's cost is the journaled run minus the other
   two. The phase times are per migration: medians over the ops of
   every pass but the warm-up (all passes do the same work). A single
   op's phases move by a fifth from op to op, as major-GC work lands in
   one phase or the next, and the journal's share is a small difference
   of large times, so it needs the larger sample. *)
let traced p ~seed =
  let plan = plan p ~seed (setup ()) in
  let n = p.traced_ops in
  let pass_no = ref 0 and phases = ref [] in
  let pass w =
    incr pass_no;
    let window = ref 0. and minor = ref 0. in
    let io = ref (0, 0) in
    let ops =
      List.init n (fun i ->
          let w0 = minor_words () in
          let t0 = cpu () in
          let vs = w.wrap "migrate.population" (fun () -> Engine.build_plan plan) in
          let t1 = cpu () in
          let r =
            w.wrap "migrate.verdicts" (fun () ->
                Engine.run ~options:(Engine.options_of_plan plan) vs plan.Engine.target)
          in
          let t2 = cpu () in
          let b0, s0 = proc_io () in
          let dir, rj =
            w.wrap "wal.journal" (fun () -> journaled plan ((100 * !pass_no) + i))
          in
          let b1, s1 = proc_io () in
          let t3 = cpu () in
          if !pass_no > 1 then phases := (t1 -. t0, t2 -. t1, t3 -. t2) :: !phases;
          window := !window +. (t3 -. t0);
          minor := !minor +. (minor_words () -. w0);
          io := (fst !io + b1 - b0, snd !io + s1 - s0);
          (r, rj, dir))
    in
    (!window, !minor, !io, ops)
  in
  let rec_ = recorder () in
  let window_u, (window, minor, (bytes, syscalls), ops) =
    Layers.untraced_then_traced
      ~window:(fun (w, _, _, _) -> w)
      ~untraced:(fun () -> pass plain)
      ~traced:(fun () -> Layers.traced rec_ (fun () -> pass (spans rec_)))
  in
  let expected = report_string (in_memory plan) in
  let failed =
    List.length
      (List.filter
         (fun (r, rj, dir) ->
           report_string r <> expected
           || report_string rj <> expected
           || resumed dir <> expected)
         ops)
  in
  let phase f = ms_of_s (median (Array.of_list (List.map f !phases))) in
  let fresh, hits, deferred =
    List.fold_left
      (fun (f, h, d) (r, _, _) ->
        let _, _, _, fr, hi, _ = Engine.totals r in
        (f + fr, h + hi, d + List.length (Engine.deferred_batches r)))
      (0, 0, 0) ops
  in
  let own =
    [
      m "migrate.population_ms" "ms" (phase (fun (b, _, _) -> b));
      m "migrate.verdicts_ms" "ms" (phase (fun (_, v, _) -> v));
      m "migrate.fresh" "count" (float fresh);
      m "migrate.memo_hit_ratio" "ratio" (ratio hits (hits + fresh));
      m "migrate.deferred" "count" (float deferred);
      m "wal.journal_ms" "ms"
        (phase (fun (_, _, j) -> j) -. phase (fun (b, _, _) -> b) -. phase (fun (_, v, _) -> v));
      m "wal.write_bytes" "bytes" (float bytes);
      m "wal.write_syscalls" "count" (float syscalls);
    ]
  in
  Layers.result ~attempted:n ~failed ~window ~window_untraced:window_u ~minor
    ~closed:rec_.closed ~own
