(* evolve_ladder and repair_ladder: [chorev evolve] on one seeded
   [Gen_change] change per op, each op cold ([Cache.Memo.reset] before
   it, as a fresh process would be).

   evolve_ladder runs the ladder-200 pair plus the 8-spoke hub with
   repair off. A fixed rotation of twelve (kind, owner) slots decides
   what each op changes: eight hub-side changes (hub or one spoke,
   additive or subtractive), two additive and two subtractive ladder
   changes. Subtractive ladder changes fail auto-adaptation, so the
   witness phase runs on a sixth of the ops, always the costliest
   sixth: the median sits in the hub class and the tail in the failing
   ladder class.

   repair_ladder runs [--repair] (unbudgeted, the flag's default) on a
   two-party ladder of one mid size; every op is a subtractive change,
   which today fails adaptation and runs the whole amendment search.

   The seed picks the sites of the changes, never their kinds or
   owners. *)

open Common
module Evolution = C.Choreography.Evolution
module Model = C.Choreography.Model
module Amend = C.Repair.Amend

type params = {
  name : string;
  ladder : int;
  hub : int;  (* spokes; 0 = no hub *)
  repair : bool;
  ops : int;
  traced_ops : int;
  setup_reps : int;
  setup_batch : int;  (* repetitions averaged in one sample *)
}

(* Nominal CPU per op on the reference box, used only to turn
   [--seconds] into a fixed op count. *)
let evolve_params ~seconds =
  {
    name = "evolve_ladder";
    ladder = 200;
    hub = 8;
    repair = false;
    ops = 12 * max 2 (seconds * 1000 / 22 / 12);
    traced_ops = 24;
    setup_reps = 51;
    setup_batch = 1;
  }

let repair_params ~seconds =
  {
    name = "repair_ladder";
    ladder = 10;
    hub = 0;
    repair = true;
    ops = 2 * max 20 (seconds * 1000 / 110 / 2);
    traced_ops = 8;
    setup_reps = 51;
    setup_batch = 30;
  }

let describe p =
  [
    ("ladder", string_of_int p.ladder);
    ("hub_spokes", string_of_int p.hub);
    ("repair", string_of_bool p.repair);
    ("ops", string_of_int p.ops);
    ("tail", tail_name p.ops);
    ("traced_ops", string_of_int p.traced_ops);
    ("setup_reps", Printf.sprintf "%d x %d" p.setup_reps p.setup_batch);
    ( "rotation",
      if p.repair then "subtractive, owners A,B alternating"
      else
        "hub+,hub-,spoke+,spoke-,hub+,spoke-,spoke+,hub-,A+,A-,B+,B-" );
  ]

let config p =
  if p.repair then C.Config.with_repair Evolution.default else Evolution.default

let processes p =
  let la, lb = C.Workload.Scale.ladder p.ladder in
  let hub =
    if p.hub = 0 then []
    else
      let h, spokes = C.Workload.Scale.hub p.hub in
      h :: spokes
  in
  la :: lb :: hub

let setup p = Model.of_processes (processes p)

type slot = { owner : string; additive : bool; cls : string }

let rotation p ~seed i =
  if p.repair then
    { owner = (if i mod 2 = 0 then "A" else "B"); additive = false; cls = "ladder_sub" }
  else
    let spoke = Printf.sprintf "P%d" (derive seed i mod p.hub) in
    let hub_side owner additive = { owner; additive; cls = "hub" } in
    match i mod 12 with
    | 0 | 4 -> hub_side "HUB" true
    | 1 | 7 -> hub_side "HUB" false
    | 2 | 6 -> hub_side spoke true
    | 3 | 5 -> hub_side spoke false
    | 8 -> { owner = "A"; additive = true; cls = "ladder_add" }
    | 9 -> { owner = "A"; additive = false; cls = "ladder_sub" }
    | 10 -> { owner = "B"; additive = true; cls = "ladder_add" }
    | _ -> { owner = "B"; additive = false; cls = "ladder_sub" }

(* The changed private process of op [i], built from the seed alone. *)
let change p model ~seed i =
  let s = rotation p ~seed i in
  let proc = Model.private_ model s.owner in
  let op =
    if s.additive then
      C.Workload.Gen_change.additive
        ~fresh_op:(Printf.sprintf "fresh%dOp" i)
        ~seed:(derive seed i) proc
    else C.Workload.Gen_change.subtractive ~seed:(derive seed i) proc
  in
  match op with
  | None -> failwith (Printf.sprintf "%s: no change site for op %d" p.name i)
  | Some op -> (s, C.Change.Ops.apply_exn op proc)

let canonical (rep : Evolution.report) =
  Fmt.str "%a@.digest %s" Evolution.pp_report rep
    (C.Journal.model_digest rep.Evolution.choreography)

let evolve ~config ?cache model (s, changed) =
  match Evolution.run ~config ?cache model ~owner:s.owner ~changed with
  | Ok rep -> rep
  | Error (`Unknown_party q) -> failwith ("unknown party " ^ q)

(* One op as the CLI runs it: a fresh evolution cache, cold memo. *)
let op p model ch =
  evolve ~config:(config p) ~cache:(Evolution.Cache.create ()) model ch

(* The reference: the same change with [cache = false]. *)
let reference p model ch =
  canonical (evolve ~config:{ (config p) with Evolution.cache = false } model ch)

(* The timed ops run back to back, each from a cold memo; each op's
   canonical report is kept (untimed). [heap_peak_mb] is read right
   after the last op, and only then do the references run, with the
   set-up samples between them, so neither can set the heap's peak. *)
let run p ~seed =
  C.Cache.Memo.reset ();
  let model = setup p in
  let changes = Array.init p.ops (change p model ~seed) in
  let op_ms = Array.make p.ops 0. and got = Array.make p.ops "" in
  let timed = ref 0. and wall_s = ref 0. in
  Array.iteri
    (fun i ch ->
      C.Cache.Memo.reset ();
      let w0 = Unix.gettimeofday () in
      let t0 = cpu () in
      let rep = op p model ch in
      let dt = cpu () -. t0 in
      wall_s := !wall_s +. (Unix.gettimeofday () -. w0);
      timed := !timed +. dt;
      op_ms.(i) <- ms_of_s dt;
      got.(i) <- canonical rep)
    changes;
  let wall_s = !wall_s in
  let heap_mb = heap_peak_mb () in
  let failed = ref 0 in
  let setup_samples =
    between_checks ~reps:p.setup_reps ~n:p.ops
      ~sample:(fun () ->
        setup_sample ~batch:p.setup_batch ~prepare:C.Cache.Memo.reset (fun () -> setup p))
      (fun i -> if reference p model changes.(i) <> got.(i) then incr failed)
  in
  let classes = [ "hub"; "ladder_add"; "ladder_sub" ] in
  let extras =
    ("wall_s", Printf.sprintf "%.6f" wall_s)
    :: List.concat_map
         (fun c ->
           let xs =
             Array.of_list
               (List.filteri
                  (fun i _ -> (fst changes.(i)).cls = c)
                  (Array.to_list op_ms))
           in
           if Array.length xs = 0 then []
           else
             [
               ("class." ^ c ^ ".n", string_of_int (Array.length xs));
               ("class." ^ c ^ ".p50_cpu_ms", Printf.sprintf "%.6f" (median xs));
             ])
         classes
  in
  {
    attempted = p.ops;
    failed = !failed;
    metrics =
      end_to_end ~setup:setup_samples
        ~work:(float (p.ops - !failed)) ~timed_s:!timed ~op_ms
        ~heap_mb;
    extras;
  }

(* The repair layer's own numbers, from the traced pass's reports. The
   candidate queue is rebuilt from outside on each search's witness:
   once as the search builds it (timed), and once untruncated to count
   what the search built before keeping [max_candidates]. *)
let repair_metrics p model reports =
  let policy = (config p).Evolution.repair in
  let searches = ref 0 and repaired = ref 0 and attempts = ref 0 and fuel = ref 0 in
  let build_s = ref 0. and built = ref 0 and kept = ref 0 in
  List.iter
    (fun (rep : Evolution.report) ->
      List.iter
        (fun (r : Evolution.round) ->
          List.iter
            (fun (pr : Evolution.partner_report) ->
              match pr.Evolution.repair with
              | None -> ()
              | Some a -> (
                  incr searches;
                  if a.Amend.repaired <> None then incr repaired;
                  attempts := !attempts + a.Amend.attempts;
                  fuel := !fuel + a.Amend.fuel_spent;
                  match (a.Amend.witness, pr.Evolution.outcome) with
                  | Some w, Some o ->
                      let direction = o.C.Propagate.Engine.direction in
                      let partner_private = Model.private_ model pr.Evolution.partner in
                      let t0 = cpu () in
                      let q = Amend.candidates ~policy ~direction partner_private w in
                      build_s := !build_s +. (cpu () -. t0);
                      kept := !kept + List.length q;
                      built :=
                        !built
                        + List.length
                            (Amend.candidates
                               ~policy:{ policy with C.Config.max_candidates = max_int }
                               ~direction partner_private w)
                  | _ -> ()))
            r.Evolution.partners)
        rep.Evolution.rounds)
    reports;
  [
    m "repair.queue_build_ms" "ms" (ms_of_s !build_s);
    m "repair.queue_built" "count" (float !built);
    m "repair.queue_kept_ratio" "ratio" (ratio !kept !built);
    m "repair.attempts" "count" (float !attempts);
    m "repair.repaired_ratio" "ratio" (ratio !repaired !searches);
    m "repair.fuel" "count" (float !fuel);
  ]

let traced p ~seed =
  C.Cache.Memo.reset ();
  let model = setup p in
  let n = min p.traced_ops p.ops in
  let changes = Array.init n (change p model ~seed) in
  let pass () =
    let window = ref 0. and minor = ref 0. in
    let reports =
      Array.map
        (fun ch ->
          C.Cache.Memo.reset ();
          let w0 = minor_words () in
          let t0 = cpu () in
          let rep = op p model ch in
          window := !window +. (cpu () -. t0);
          minor := !minor +. (minor_words () -. w0);
          rep)
        changes
    in
    (!window, !minor, reports)
  in
  let rec_ = recorder () in
  let window_u, (window, minor, reports) =
    Layers.untraced_then_traced
      ~window:(fun (w, _, _) -> w)
      ~untraced:pass
      ~traced:(fun () -> Layers.traced rec_ pass)
  in
  let failed = ref 0 in
  Array.iteri
    (fun i rep -> if reference p model changes.(i) <> canonical rep then incr failed)
    reports;
  let own = if p.repair then repair_metrics p model (Array.to_list reports) else [] in
  Layers.result ~attempted:n ~failed:!failed ~window ~window_untraced:window_u ~minor
    ~closed:rec_.closed ~own
