(* The per-layer metrics of a traced run. Each workload runs a fixed
   subset of its ops twice from the same state — once untraced, once
   traced — and hands the traced pass's spans here. The library's own
   spans arrive through a sink this benchmark owns; the benchmark adds
   spans only around its own calls into a layer (wire decode/encode,
   the scheduler cycle, the migration phases). *)

open Common

(* Which layer a span's self time belongs to. *)
let layer_of = function
  | "evolve" | "round" | "partner" | "regenerate" | "dry_run" ->
      "choreography.evolve_self_ms"
  | "consistency.check_all" -> "choreography.consistency_ms"
  | "classify" -> "change.classify_ms"
  | "view" -> "propagate.view_ms"
  | "delta" -> "propagate.delta_ms"
  | "localize" -> "propagate.localize_ms"
  | "suggest" -> "propagate.suggest_ms"
  | "apply" -> "propagate.apply_ms"
  | "re-check" -> "propagate.recheck_ms"
  | "witness" | "witness.trace" -> "propagate.witness_ms"
  | "propagate" -> "propagate.self_ms"
  | "public_gen" -> "mapping.public_gen_ms"
  | "repair.amend" | "repair.queue" -> "repair.amend_self_ms"
  | "wire.decode" -> "wire.decode_ms"
  | "wire.encode" -> "wire.encode_ms"
  | name -> name

(* Every per-layer metric, in the order BENCHMARK.json lists them, with
   its unit. A layer a workload never reaches reads 0: the traced run
   measured no work there. *)
let catalogue =
  [
    ("wire.decode_ms", "ms");
    ("wire.encode_ms", "ms");
    ("serve.cycle_self_ms", "ms");
    ("serve.exec_ms.query", "ms");
    ("serve.exec_ms.migrate_status", "ms");
    ("serve.exec_ms.evolve", "ms");
    ("serve.exec_ms.publish", "ms");
    ("serve.queue_wait_p50_ms", "ms");
    ("serve.queue_wait_tail_ms", "ms");
    ("serve.generator_late_ms", "ms");
    ("choreography.evolve_self_ms", "ms");
    ("choreography.consistency_ms", "ms");
    ("change.classify_ms", "ms");
    ("propagate.view_ms", "ms");
    ("propagate.delta_ms", "ms");
    ("propagate.localize_ms", "ms");
    ("propagate.suggest_ms", "ms");
    ("propagate.apply_ms", "ms");
    ("propagate.recheck_ms", "ms");
    ("propagate.witness_ms", "ms");
    ("propagate.self_ms", "ms");
    ("mapping.public_gen_ms", "ms");
    ("mapping.public_gen_calls", "count");
    ("afsa.product.pairs", "count");
    ("afsa.pack.builds", "count");
    ("afsa.emptiness.iterations", "count");
    ("afsa.minimize.runs", "count");
    ("afsa.ops.intersect", "count");
    ("afsa.ops.difference", "count");
    ("formula.simplify_hit_ratio", "ratio");
    ("cache.hit_ratio", "ratio");
    ("cache.evict", "count");
    ("serve.tenant_cache_hit_ratio", "ratio");
    ("repair.amend_ms", "ms");
    ("repair.amend_self_ms", "ms");
    ("repair.queue_build_ms", "ms");
    ("repair.queue_built", "count");
    ("repair.queue_kept_ratio", "ratio");
    ("repair.attempts", "count");
    ("repair.repaired_ratio", "ratio");
    ("repair.fuel", "count");
    ("migrate.population_ms", "ms");
    ("migrate.verdicts_ms", "ms");
    ("migrate.fresh", "count");
    ("migrate.memo_hit_ratio", "ratio");
    ("migrate.deferred", "count");
    ("wal.journal_ms", "ms");
    ("wal.write_bytes", "bytes");
    ("wal.write_syscalls", "count");
    ("gc.minor_mw", "Mw");
    ("unattributed_ms", "ms");
    ("trace.overhead_ms", "ms");
  ]

(* Run [body] with the benchmark's sink installed and the library's
   counters on, from zeroed counters. *)
let traced rec_ body =
  C.Obs.Metrics.reset ();
  C.Obs.Metrics.enabled := true;
  let finally () =
    C.Obs.Sink.(C.Obs.set_sink silent);
    C.Obs.Metrics.enabled := false
  in
  C.Obs.set_sink (sink rec_);
  Fun.protect ~finally body

(* Assemble the catalogue into a traced run's result. [window] and
   [window_untraced] are the CPU seconds of the traced and untraced
   passes, [minor] the words the traced pass allocated, [own] the
   workload's own measurements (they override the span-derived values
   of the same name). *)
let result ~attempted ~failed ~window ~window_untraced ~minor ~closed ~own =
  let selves = self_by_layer ~layer_of closed in
  let self name =
    ms_of_s (Option.value ~default:0. (Hashtbl.find_opt selves name))
  in
  let spans_named name =
    List.filter (fun s -> s.name = name) closed
  in
  let inclusive name =
    ms_of_s
      (List.fold_left (fun acc s -> acc +. (s.stop -. s.start)) 0. (spans_named name))
  in
  let cnt name = float (counter name) in
  let derived = function
    | "mapping.public_gen_calls" -> float (List.length (spans_named "public_gen"))
    | "repair.amend_ms" -> inclusive "repair.amend"
    | "formula.simplify_hit_ratio" ->
        let h = counter "formula.simplify.hits" in
        ratio h (h + counter "formula.simplify.misses")
    | "cache.hit_ratio" ->
        let h = counter "cache.hit" in
        ratio h (h + counter "cache.miss")
    | "cache.evict" -> cnt "cache.evict"
    | ( "afsa.product.pairs" | "afsa.pack.builds" | "afsa.emptiness.iterations"
      | "afsa.minimize.runs" | "afsa.ops.intersect" | "afsa.ops.difference" ) as
      n ->
        cnt n
    | "gc.minor_mw" -> minor /. 1e6
    | "unattributed_ms" -> ms_of_s (unattributed ~window closed)
    | "trace.overhead_ms" -> ms_of_s (window -. window_untraced)
    | name when Hashtbl.mem selves name -> self name
    | _ -> 0.
  in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun x -> x.mname = name) own with
        | Some x -> x
        | None -> m name unit_ (derived name))
      catalogue
  in
  let extras =
    [
      ("window_untraced_ms", Printf.sprintf "%.6f" (ms_of_s window_untraced));
      ("window_traced_ms", Printf.sprintf "%.6f" (ms_of_s window));
    ]
  in
  { attempted; failed; metrics; extras }

(* The untraced and the traced passes of a traced run start from the
   same state: a discarded warm-up pass first fills the process-wide
   tables (formula interning, say) that whichever pass ran first would
   otherwise pay for alone, and the heap is compacted before each pass.
   The traced pass runs between two untraced ones, so a slow drift of
   the machine's speed cancels out of the overhead. Returns the mean of
   the untraced passes' windows ([window] picks a pass's window) and the
   traced pass's result. *)
let untraced_then_traced ~window ~untraced ~traced =
  let pass f =
    Gc.compact ();
    f ()
  in
  ignore (pass untraced);
  let u1 = pass untraced in
  let t = pass traced in
  let u2 = pass untraced in
  ((window u1 +. window u2) /. 2., t)
