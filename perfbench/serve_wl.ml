(* serve_interactive: [chorev serve] in memory with default options,
   one client, one request per cycle (a closed loop).

   The script keeps [Driver.gen_script]'s request shapes and its mix —
   50% query, 20% migrate-status, 20% evolve over the three request
   classes, 10% publish of 1-50 instances — but fixes the counts: every
   block of ten requests holds exactly that mix (in a seeded order),
   every tenant is evolved the same number of times in round-robin
   order, the classes rotate so each gets a fixed share, and the
   publish sizes cycle through 1..50. The seed picks the tenants'
   processes, the evolved processes and which tenants the reads hit;
   it never picks how many of each kind there are. *)

open Common
module Wire = C.Serve.Wire
module Server = C.Serve.Server
module Driver = C.Serve.Driver

type params = {
  tenants : int;  (* registered in cycles of at most queue_capacity *)
  evolves_per_tenant : int;
  traced_requests : int;  (* the subset run twice by the traced run *)
  probe_requests : int;  (* the open-loop probe's length *)
  probe_rate : float;  (* requests per CPU second, fixed *)
  setup_reps : int;
}

let params ~seconds =
  {
    tenants = 512;  (* a multiple of [slots], so the size shares are exact *)
    evolves_per_tenant = max 1 (seconds * 3 / 8);
    traced_requests = 2560;
    probe_requests = 400;
    probe_rate = 250.;
    setup_reps = 7;
  }

let describe p =
  [
    ("tenants", string_of_int p.tenants);
    ("evolves_per_tenant", string_of_int p.evolves_per_tenant);
    ("requests", string_of_int (5 * p.tenants * p.evolves_per_tenant));
    ("tail", tail_name (5 * p.tenants * p.evolves_per_tenant));
    ("traced_requests", string_of_int p.traced_requests);
    ("probe_requests", string_of_int p.probe_requests);
    ("probe_rate", Printf.sprintf "%g" p.probe_rate);
    ("setup_reps", string_of_int p.setup_reps);
    ("options", "Server.default_options, pool of 1 domain");
  ]

type kind = Query | Mstat | Evolve | Publish

let class_of = function
  | Query | Mstat -> "read"
  | Publish -> "publish"
  | Evolve -> "evolve"

type script = {
  registrations : string list;
  requests : (kind * string) array;
}

let tenant_name i = Printf.sprintf "t%04d" i

(* Requesters come in five size bands of eight activities, 1-8, 9-16,
   ..., 33-40, in the shares [Gen_process.pair] gives them with its
   default parameters: over seeds 0-9999, 5791 requesters have at most
   40 activities, and of those 1.6%, 18.7%, 28.7%, 27.6% and 23.5% fall
   in the five bands. A cycle of 64 slots holds each band that many
   times (1, 12, 18, 18, 15), interleaved; the seed picks each process
   within its slot's band, so every seed gets the same size mix.
   Requesters above 40 activities are left out: a single evolve on one
   can take seconds and swamps the run (see README.md). *)
let band_counts = [| 1; 12; 18; 18; 15 |]
let band_width = 8
let slots = Array.fold_left ( + ) 0 band_counts

(* The band of slot [j]: a fixed stride through the slots, so the
   bands interleave. *)
let band_of_slot j =
  let pos = j * 37 mod slots in
  let rec go b acc =
    if pos < acc + band_counts.(b) then b else go (b + 1) (acc + band_counts.(b))
  in
  go 0 0

(* The first of a seeded sequence of generated pairs whose requester
   falls in band [band]. *)
let pair_in_band ~band seed =
  let lo = (band * band_width) + 1 and hi = (band + 1) * band_width in
  let rec go k =
    let a, b = C.Workload.Gen_process.pair ~seed:(derive seed k) () in
    let n = C.Bpel.Process.size a in
    if lo <= n && n <= hi then (a, b) else go (k + 1)
  in
  go 0

let gen_script p ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let id = ref 0 in
  let line op =
    incr id;
    Wire.request_to_string { Wire.id = !id; op }
  in
  let registrations =
    List.init p.tenants (fun i ->
        let a, b = pair_in_band ~band:(band_of_slot i) (derive seed i) in
        line
          (Wire.Register
             {
               tenant = tenant_name i;
               processes =
                 [ C.Bpel.Sexp.process_to_string a; C.Bpel.Sexp.process_to_string b ];
             }))
  in
  let evolves = p.tenants * p.evolves_per_tenant in
  let block = [| Query; Query; Query; Query; Query; Mstat; Mstat; Evolve; Evolve; Publish |] in
  let classes = [| Wire.Interactive; Wire.Standard; Wire.Bulk; Wire.Bulk |] in
  let k = ref 0 and pub = ref 0 in
  let request kind =
    let random_tenant () = tenant_name (Random.State.int rng p.tenants) in
    match kind with
    | Query -> line (Wire.Query { tenant = random_tenant () })
    | Mstat -> line (Wire.Migrate_status { tenant = random_tenant () })
    | Evolve ->
        let e = !k in
        incr k;
        let a, _ =
          pair_in_band
            ~band:(band_of_slot (e + (e / p.tenants)))
            (derive seed (1_000_000 + e))
        in
        line
          (Wire.Evolve
             {
               tenant = tenant_name (e mod p.tenants);
               owner = C.Bpel.Process.party a;
               changed = C.Bpel.Sexp.process_to_string a;
               klass = classes.((e + (e / p.tenants)) mod 4);
             })
    | Publish ->
        let j = !pub in
        incr pub;
        let tenant = random_tenant () in
        let party = if Random.State.bool rng then "A" else "B" in
        line
          (Wire.Publish
             {
               tenant;
               party;
               instances = 1 + (((j * 37) + seed) mod 50 + 50) mod 50;
               seed = derive seed (2_000_000 + j) mod 1_000_000;
             })
  in
  let requests =
    Array.concat
      (List.init (evolves / 2) (fun _ ->
           let b = Array.copy block in
           for i = Array.length b - 1 downto 1 do
             let j = Random.State.int rng (i + 1) in
             let t = b.(i) in
             b.(i) <- b.(j);
             b.(j) <- t
           done;
           Array.map (fun kind -> (kind, request kind)) b))
  in
  { registrations; requests }

(* A server with the script's tenants registered, from a cold cache —
   what a user pays before the first request. Registration goes in
   cycles of at most [queue_capacity], so nothing is shed. *)
let setup script =
  let srv = Server.create () in
  let cap = Server.default_options.Server.queue_capacity in
  let rec go acc = function
    | [] -> List.rev acc
    | lines ->
        let batch = List.filteri (fun i _ -> i < cap) lines
        and rest = List.filteri (fun i _ -> i >= cap) lines in
        let reqs =
          List.map
            (fun l ->
              match Wire.request_of_string l with
              | Ok r -> r
              | Error (_, e) -> failwith ("registration: " ^ e))
            batch
        in
        go (List.rev_append (List.map Wire.response_to_string (Server.cycle srv reqs)) acc) rest
  in
  let lines = go [] script.registrations in
  (srv, lines)

(* One request through the wire: decode, one scheduler cycle, encode.
   [wrap] lets the traced run put its own spans around each layer. *)
let serve_one ?(w = plain) srv line =
  match w.wrap "wire.decode" (fun () -> Wire.request_of_string line) with
  | Error (_, e) -> "malformed request: " ^ e
  | Ok r ->
      let rs = w.wrap "serve.cycle" (fun () -> Server.cycle srv [ r ]) in
      w.wrap "wire.encode" (fun () ->
          String.concat "\n" (List.map Wire.response_to_string rs))

let is_error line =
  match Wire.response_of_string line with
  | Ok { Wire.result = Ok _; _ } -> false
  | _ -> true

let count_failed ~expected ~got =
  let failed = ref 0 in
  Array.iteri
    (fun i g -> if g <> expected.(i) || is_error g then incr failed)
    got;
  !failed

let oracle script n =
  let lines =
    script.registrations
    @ List.init n (fun i -> snd script.requests.(i))
  in
  let out = Array.of_list (Driver.oracle lines) in
  let r = List.length script.registrations in
  (Array.sub out 0 r, Array.sub out r n)

let run p ~seed =
  let script = gen_script p ~seed in
  let setup_samples =
    time_setup ~reps:p.setup_reps ~prepare:C.Cache.Memo.reset (fun () ->
        setup script)
  in
  C.Cache.Memo.reset ();
  let srv, reg_lines = setup script in
  let n = Array.length script.requests in
  let op_ms = Array.make n 0. and got = Array.make n "" in
  let wall0 = Unix.gettimeofday () in
  let t0 = cpu () in
  for i = 0 to n - 1 do
    let a = cpu () in
    got.(i) <- serve_one srv (snd script.requests.(i));
    op_ms.(i) <- ms_of_s (cpu () -. a)
  done;
  let timed_s = cpu () -. t0 in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let heap_mb = heap_peak_mb () in
  let exp_reg, expected = oracle script n in
  let reg_failed = if Array.of_list reg_lines = exp_reg then 0 else 1 in
  let failed = count_failed ~expected ~got + reg_failed in
  let by_class = Hashtbl.create 4 in
  Array.iteri
    (fun i (kind, _) ->
      let c = class_of kind in
      Hashtbl.replace by_class c
        (op_ms.(i) :: Option.value ~default:[] (Hashtbl.find_opt by_class c)))
    script.requests;
  let extras =
    [ ("wall_s", Printf.sprintf "%.6f" wall_s) ]
    @ List.concat_map
        (fun c ->
          let xs = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_class c)) in
          [
            ("class." ^ c ^ ".n", string_of_int (Array.length xs));
            ("class." ^ c ^ ".p50_cpu_ms", Printf.sprintf "%.6f" (median xs));
          ])
        [ "read"; "publish"; "evolve" ]
  in
  {
    attempted = n;
    failed;
    metrics =
      end_to_end ~setup:setup_samples ~work:(float (n - failed)) ~timed_s ~op_ms ~heap_mb;
    extras;
  }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let exec_sums srv =
  List.map
    (fun (kind, xs) -> (kind, Array.fold_left ( +. ) 0. xs /. 1000.))
    (Server.latencies_us srv)

(* Open loop at a fixed rate on a virtual CPU clock: request [i] is due
   at [i / rate]; when the server is idle before the next due time the
   clock skips ahead. Each cycle admits every request already due (up
   to the queue capacity). A request's queue wait runs from when it was
   due to when its cycle started; the generator's lateness is how far
   behind schedule the last request was sent. *)
let queue_probe p script =
  C.Cache.Memo.reset ();
  let srv, _ = setup script in
  let n = min p.probe_requests (Array.length script.requests) in
  let due i = float i /. p.probe_rate in
  let skipped = ref 0. in
  let t0 = cpu () in
  let now () = cpu () -. t0 +. !skipped in
  let waits = Array.make n 0. in
  let late = ref 0. in
  let i = ref 0 in
  let cap = Server.default_options.Server.queue_capacity in
  while !i < n do
    if due !i > now () then skipped := !skipped +. (due !i -. now ());
    let start = now () in
    let first = !i in
    while !i < n && !i - first < cap && due !i <= start do
      waits.(!i) <- ms_of_s (start -. due !i);
      incr i
    done;
    late := ms_of_s (start -. due (!i - 1));
    let reqs =
      List.init (!i - first) (fun k ->
          match Wire.request_of_string (snd script.requests.(first + k)) with
          | Ok r -> r
          | Error (_, e) -> failwith e)
    in
    ignore (Server.cycle srv reqs)
  done;
  let tail =
    match tail_percentile n with Some q -> percentile waits q | None -> nan
  in
  [
    m "serve.queue_wait_p50_ms" "ms" (median waits);
    m "serve.queue_wait_tail_ms" "ms" tail;
    m "serve.generator_late_ms" "ms" !late;
  ]

let traced p ~seed =
  let script = gen_script p ~seed in
  let n = min p.traced_requests (Array.length script.requests) in
  let pass ~traced =
    C.Cache.Memo.reset ();
    let srv, _ = setup script in
    let rec_ = recorder () in
    let before = exec_sums srv in
    let got = Array.make n "" in
    (* The server times each request's execution in wall-clock
       microseconds, so the cycle's own share is taken on the same
       clock. *)
    let cycle_wall = ref 0. in
    let w =
      if not traced then plain
      else
        {
          wrap =
            (fun name f ->
              if name <> "serve.cycle" then span rec_ name f
              else
                let t0 = Unix.gettimeofday () in
                let r = span rec_ name f in
                cycle_wall := !cycle_wall +. (Unix.gettimeofday () -. t0);
                r);
        }
    in
    let body () =
      let w0 = minor_words () in
      let t0 = cpu () in
      for i = 0 to n - 1 do
        got.(i) <- serve_one ~w srv (snd script.requests.(i))
      done;
      (cpu () -. t0, minor_words () -. w0)
    in
    let window, minor = if traced then Layers.traced rec_ body else body () in
    let exec =
      List.map
        (fun (k, s) ->
          (k, s -. Option.value ~default:0. (List.assoc_opt k before)))
        (exec_sums srv)
    in
    (srv, rec_, window, minor, exec, got, !cycle_wall)
  in
  let window_u, (srv, rec_, window, minor, exec, got, cycle_wall) =
    Layers.untraced_then_traced
      ~window:(fun (_, _, w, _, _, _, _) -> w)
      ~untraced:(fun () -> pass ~traced:false)
      ~traced:(fun () -> pass ~traced:true)
  in
  let _, expected = oracle script n in
  let failed = count_failed ~expected ~got in
  let exec_ms k = Option.value ~default:0. (List.assoc_opt k exec) in
  let tenant_hits, tenant_misses =
    List.fold_left
      (fun (h, ms) (k, v) ->
        match v with
        | Wire.Json.Int v when String.ends_with ~suffix:".hits" k -> (h + v, ms)
        | Wire.Json.Int v when String.ends_with ~suffix:".misses" k -> (h, ms + v)
        | _ -> (h, ms))
      (0, 0)
      (List.filter
         (fun (k, _) -> String.starts_with ~prefix:"cache." k)
         (Server.stats_fields srv))
  in
  let own =
    [
      m "serve.cycle_self_ms" "ms"
        (ms_of_s cycle_wall
        -. List.fold_left (fun acc (_, s) -> acc +. s) 0. exec);
      m "serve.exec_ms.query" "ms" (exec_ms "query");
      m "serve.exec_ms.migrate_status" "ms" (exec_ms "migrate-status");
      m "serve.exec_ms.evolve" "ms" (exec_ms "evolve");
      m "serve.exec_ms.publish" "ms" (exec_ms "publish");
      m "serve.tenant_cache_hit_ratio" "ratio"
        (ratio tenant_hits (tenant_hits + tenant_misses));
    ]
    @ queue_probe p script
  in
  Layers.result ~attempted:n ~failed ~window ~window_untraced:window_u ~minor
    ~closed:rec_.closed ~own
