(* The benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --self-test

   With [--trace 0] it runs the workload's fixed work, checks every op
   against an independent reference and prints the end-to-end metrics;
   with [--trace 1] it runs a fixed subset of the ops untraced and then
   traced from the same state, and prints the per-layer metrics. The
   last line of standard output is the result object; the line before
   it describes the run: the workload parameters, their digest, a fixed
   calibration reading, and the extras that are printed but not gated
   (wall-clock time, per-class sample counts). *)

open Common

(* Each workload's parameter description, untraced run and traced run,
   all from [--seconds]. *)
type workload = {
  describe : seconds:int -> (string * string) list;
  run : seconds:int -> seed:int -> result;
  traced : seconds:int -> seed:int -> result;
}

let workloads =
  let evolve params =
    {
      describe = (fun ~seconds -> Evolve_wl.describe (params ~seconds));
      run = (fun ~seconds -> Evolve_wl.run (params ~seconds));
      traced = (fun ~seconds -> Evolve_wl.traced (params ~seconds));
    }
  in
  [
    ( "serve_interactive",
      {
        describe = (fun ~seconds -> Serve_wl.describe (Serve_wl.params ~seconds));
        run = (fun ~seconds -> Serve_wl.run (Serve_wl.params ~seconds));
        traced = (fun ~seconds -> Serve_wl.traced (Serve_wl.params ~seconds));
      } );
    ("evolve_ladder", evolve Evolve_wl.evolve_params);
    ("repair_ladder", evolve Evolve_wl.repair_params);
    ( "migrate_100k",
      {
        describe = (fun ~seconds -> Migrate_wl.describe (Migrate_wl.params ~seconds));
        run = (fun ~seconds -> Migrate_wl.run (Migrate_wl.params ~seconds));
        traced = (fun ~seconds -> Migrate_wl.traced (Migrate_wl.params ~seconds));
      } );
  ]

(* Bump when a change to the benchmark alters what a workload measures:
   results whose parameter digests differ are never compared. *)
let version = "perfbench-1"

(* A fixed CPU-bound loop, timed: how fast this box is today. Printed
   beside every result so two results from different boxes are not
   mistaken for a change in the program. *)
let calibration_ms () =
  let once () =
    let t0 = cpu () in
    let h = ref 0 in
    for i = 1 to 20_000_000 do
      h := (!h * 31) + (i lxor (!h lsr 7))
    done;
    ignore (Sys.opaque_identity !h);
    ms_of_s (cpu () -. t0)
  in
  median (Array.init 5 (fun _ -> once ()))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let params_digest name w ~seconds =
  let fields = w.describe ~seconds in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          ((version :: name :: string_of_int seconds :: [])
          @ List.map (fun (k, v) -> k ^ "=" ^ v) fields)))

let print name w ~seed ~seconds ~trace r =
  let describe_line =
    json_object
      [
        ("workload", json_string name);
        ("seed", string_of_int seed);
        ("seconds", string_of_int seconds);
        ("trace", string_of_int trace);
        ("version", json_string version);
        ( "params",
          json_object (List.map (fun (k, v) -> (k, json_string v)) (w.describe ~seconds)) );
        ("params_digest", json_string (params_digest name w ~seconds));
        ("calibration_ms", json_number (calibration_ms ()));
        ("extras", json_object (List.map (fun (k, v) -> (k, json_string v)) r.extras));
      ]
  in
  print_endline describe_line;
  print_endline
    (json_object
       [
         ("correct", if r.failed = 0 then "true" else "false");
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ( "metrics",
           json_object
             (List.map
                (fun x ->
                  ( x.mname,
                    json_object
                      [ ("value", json_number x.value); ("unit", json_string x.unit_) ] ))
                r.metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* Self-tests of the measurement                                       *)
(* ------------------------------------------------------------------ *)

let self_test () =
  let ok = ref true in
  let check name cond =
    Printf.printf "%s %s\n" (if cond then "ok  " else "FAIL") name;
    if not cond then ok := false
  in
  (* Synthetic spans on a scripted clock: self times plus the
     unattributed rest add up to the window exactly. *)
  let ticks = ref [ 0.; 1.; 2.; 3.; 4.; 6.; 7.; 8.; 10.; 11.; 12.; 13.; 18.; 20. ] in
  let clock () =
    match !ticks with
    | t :: rest ->
        ticks := rest;
        t
    | [] -> failwith "clock exhausted"
  in
  let r = recorder ~clock () in
  let window_start = clock () in
  span r "evolve" (fun () ->
      span r "classify" (fun () -> span r "public_gen" ignore);
      span r "view" ignore);
  span r "wire.decode" (fun () -> span r "apply" ignore);
  let window = clock () -. window_start in
  let selves = total_self r.closed in
  let unattr = unattributed ~window r.closed in
  check "synthetic spans: self times + unattributed = window"
    (Float.abs (selves +. unattr -. window) < 1e-12);
  check "synthetic spans: self times as scripted"
    (List.sort compare (List.map (fun s -> (s.name, self_time s)) r.closed)
    = List.sort compare
        [
          ("public_gen", 1.); ("classify", 3.); ("view", 1.); ("evolve", 4.);
          ("apply", 1.); ("wire.decode", 6.);
        ]);
  check "synthetic spans: unattributed = gaps between top-level spans"
    (Float.abs (unattr -. 4.) < 1e-12);
  (* The minor-word counter counts a known allocation exactly: k arrays
     of 100 fields are k * 101 words, header included. *)
  let measure k =
    let w0 = minor_words () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (Array.make 100 0))
    done;
    minor_words () -. w0
  in
  let base = measure 0 in
  let counted = measure 1000 -. base in
  check (Printf.sprintf "gc.minor_mw counts 1000 x 101 words exactly (got %.0f)" counted)
    (counted = 101_000.);
  (* A percentile above the median needs ten samples beyond it. *)
  check "tail percentile: 26 ops -> p60" (tail_percentile 26 = Some 0.6);
  check "tail percentile: 20 ops -> none" (tail_percentile 20 = None);
  check "tail percentile: 5120 ops -> p99" (tail_percentile 5120 = Some 0.99);
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 8 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set self, " test the measurement itself");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  C.Parallel.Pool.set_default_size 1;
  if !self then exit (self_test ());
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let r =
    Fun.protect
      ~finally:(fun () -> rm_rf scratch_root)
      (fun () ->
        if !trace = 1 then w.traced ~seconds:!seconds ~seed:!seed
        else w.run ~seconds:!seconds ~seed:!seed)
  in
  print !workload w ~seed:!seed ~seconds:!seconds ~trace:!trace r
