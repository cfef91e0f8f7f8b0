(* The repository benchmark: one command runs a workload, checks its
   outputs and prints every metric by name and unit.  See README.md for
   why each workload exists and which layer metric should move which
   end-to-end metric.

     perfbench --workload table3|cec|serve --seed N --seconds S --trace 0|1
     perfbench --smoke

   The last stdout line is a JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics with --trace 0 (tracing off), the
   per-layer metrics with --trace 1 (a separate traced run).  Exit status
   1 on any failed output or determinism check. *)

type better = Lower | Higher

(* Every metric the benchmark prints: name, unit, direction.  BENCHMARK.json
   lists the same; --smoke checks that the two agree. *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("wall_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
    ("qor_area", "area", Lower);
    ("qor_delay_ps", "ps", Lower);
    ("p50_ms", "ms", Lower);
    ("p95_ms", "ms", Lower);
    ("decided_ratio", "ratio", Higher);
  ]

let per_layer =
  [
    ("circuits.build_ms", "ms", Lower);
    ("circuits.ands", "count", Lower);
    ("cell_lib.build_ms", "ms", Lower);
    ("cell_lib.entries", "count", Lower);
    ("cell_lib.hits", "count", Higher);
    ("cell_lib.misses", "count", Lower);
    ("synth.balance_ms", "ms", Lower);
    ("synth.rewrite_ms", "ms", Lower);
    ("synth.refactor_ms", "ms", Lower);
    ("synth.ands_ratio", "ratio", Lower);
    ("synth.cuts_built", "count", Lower);
    ("synth.alloc_mw", "Mword", Lower);
    ("cut.enum_ms", "ms", Lower);
    ("cut.built", "count", Lower);
    ("cut.dominated", "count", Lower);
    ("cut.keep_ratio", "ratio", Higher);
    ("cut.sign_rejects", "count", Higher);
    ("cut.alloc_mw", "Mword", Lower);
    ("mapper.cuts_ms", "ms", Lower);
    ("mapper.arena_ms", "ms", Lower);
    ("mapper.match_ms", "ms", Lower);
    ("mapper.required_ms", "ms", Lower);
    ("mapper.recover_ms", "ms", Lower);
    ("mapper.extract_ms", "ms", Lower);
    ("mapper.probes", "count", Lower);
    ("mapper.reevals", "count", Lower);
    ("mapper.skip_ratio", "ratio", Higher);
    ("mapper.alloc_mw", "Mword", Lower);
    ("sta.analyze_ms", "ms", Lower);
    ("cec.check_ms", "ms", Lower);
    ("cec.solves", "count", Lower);
    ("cec.conflicts", "count", Lower);
    ("cec.propagations", "count", Lower);
    ("cec.decided_ratio", "ratio", Higher);
    ("cec.undecided", "count", Lower);
    ("flow.overhead_ms", "ms", Lower);
    ("trace.overhead_pct", "%", Lower);
    ("serve.parse_ms", "ms", Lower);
    ("serve.key_ms", "ms", Lower);
    ("serve.result_ms", "ms", Lower);
    ("serve.daemon_ms", "ms", Lower);
    ("serve.cache_hit_ratio", "ratio", Higher);
    ("serve.coalesced", "count", Higher);
    ("serve.retries", "count", Lower);
    ("serve.shed", "count", Lower);
    ("gen.late_p95_ms", "ms", Lower);
    ("gen.sent", "count", Higher);
  ]

let workloads = [ "table3"; "cec"; "serve" ]

(* ---------------- workload definitions ---------------- *)

(* Circuits where the monolithic miter decides within the budget, then
   one where it does not. *)
let cec_circuits =
  [ "t481"; "dalu"; "add-64"; "C3540"; "C1355"; "C1908"; "C7552"; "C2670"; "mult-6";
    "div-8"; "des" ]

let batch_spec ~smoke = function
  | "table3" ->
      {
        Batch.circuits = (if smoke then [ "t481"; "add-16" ] else Bench_suite.names);
        families =
          (if smoke then [ Cell_netlist.Tg_static; Cell_netlist.Cmos ]
           else Cell_netlist.all_families);
        synth = Batch.resyn2rs;
        per_family = [ Batch.Map; Batch.Sta ];
        flow_script = "resyn2rs; map; sta";
        matrix = true;
        broken_pairs = 0;
      }
  | "cec" ->
      let budget = Batch.cec_budget in
      {
        Batch.circuits = (if smoke then [ "t481"; "add-16"; "mult-6" ] else cec_circuits);
        families = [ Cell_netlist.Tg_static ];
        synth = [ Batch.B; Batch.Rw false ];
        per_family = [ Batch.Map; Batch.Sta; Batch.Cec budget ];
        flow_script = Printf.sprintf "b; rw; map; sta; cec(budget=%d)" budget;
        matrix = false;
        broken_pairs = (if smoke then 2 else 4);
      }
  | w -> invalid_arg ("batch_spec " ^ w)

let run_workload ~workload ~smoke ~seed ~seconds ~trace =
  let profile = if smoke then "smoke" else "full" in
  let key = workload ^ "-" ^ profile in
  let meta = Pb.provenance ~workload ~profile ~seed ~trace in
  let repeats = if smoke then 1 else 3 in
  let outcome =
    match workload with
    | "serve" -> Serving.run ~key ~repeats ~smoke ~meta ~seed ~seconds ~trace
    | w ->
        Batch.run ~key ~repeats ~meta (batch_spec ~smoke w)
          ~seed ~seconds ~trace
  in
  (meta, outcome)

(* ---------------- output ---------------- *)

let catalog trace = if trace then per_layer else end_to_end

(* The printed metric set: exactly the catalog's, in its order.  A layer
   a workload does not exercise reads 0; a missing end-to-end metric or an
   unknown name is a bug in the driver. *)
let complete ~trace (o : Pb.outcome) =
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun (m, _, _) -> m = n) (catalog trace)) then
        failwith ("metric outside the catalog: " ^ n))
    o.Pb.metrics;
  List.map
    (fun (n, u, _) ->
      match List.assoc_opt n o.Pb.metrics with
      | Some v -> (n, v, u)
      | None when trace -> (n, 0.0, u)
      | None -> failwith ("end-to-end metric not measured: " ^ n))
    (catalog trace)

let result_json (o : Pb.outcome) metrics =
  let open Json_codec in
  Obj
    [
      ("correct", Bool (o.Pb.problems = []));
      ("attempted", Num (float_of_int o.Pb.attempted));
      ("failed", Num (float_of_int o.Pb.failed));
      ( "metrics",
        Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", Num v); ("unit", Str u) ])) metrics) );
    ]

let report ~workload ~seed ~trace (meta, (o : Pb.outcome)) =
  let metrics = complete ~trace o in
  List.iter print_endline o.Pb.notes;
  List.iter (fun (n, v, u) -> Printf.printf "%-22s %16.6f %s\n" n v u) metrics;
  Printf.printf "%-22s %16.6f ratio (%d failed of %d attempted)\n" "fail_ratio"
    (Pb.ratio (float_of_int o.Pb.failed) (float_of_int o.Pb.attempted))
    o.Pb.failed o.Pb.attempted;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) o.Pb.problems;
  let result = result_json o metrics in
  let file =
    Filename.concat Pb.out_dir
      (Printf.sprintf "result-%s-%d-trace%d.json" workload seed (if trace then 1 else 0))
  in
  Pb.write_file file
    (Json_codec.to_string (Json_codec.Obj [ ("provenance", meta); ("result", result) ]));
  Printf.printf "provenance %s\n" (Json_codec.to_string meta);
  print_endline (Json_codec.to_string result);
  metrics

(* ---------------- smoke profile ---------------- *)

let benchmark_json_metrics key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Json_codec.parse text with
  | Error m -> failwith ("BENCHMARK.json: " ^ m)
  | Ok j ->
      Option.value ~default:[] (Option.bind (Json_codec.member key j) Json_codec.arr)
      |> List.map (fun m ->
             ( Option.value ~default:"?" (Json_codec.mem_str m "name"),
               Option.value ~default:"?" (Json_codec.mem_str m "unit"),
               Option.value ~default:"?" (Json_codec.mem_str m "better") ))

(* Every workload at a size that runs in seconds, traced and untraced: the
   printed names, units and directions must be exactly BENCHMARK.json's. *)
let smoke () =
  let errors = ref [] in
  let dir = function Lower -> "lower" | Higher -> "higher" in
  List.iter
    (fun trace ->
      let want = benchmark_json_metrics (if trace then "per_layer" else "end_to_end") in
      let mine = List.map (fun (n, u, b) -> (n, u, dir b)) (catalog trace) in
      if want <> mine then
        errors := "BENCHMARK.json metrics differ from the driver's catalog" :: !errors;
      List.iter
        (fun workload ->
          Printf.printf "== smoke %s trace %d\n%!" workload (if trace then 1 else 0);
          let ((_, o) as r) = run_workload ~workload ~smoke:true ~seed:1 ~seconds:0.5 ~trace in
          let printed = report ~workload ~seed:1 ~trace r in
          if List.map (fun (n, _, u) -> (n, u)) printed <> List.map (fun (n, u, _) -> (n, u)) want
          then errors := (workload ^ ": printed metrics differ from BENCHMARK.json") :: !errors;
          List.iter (fun p -> errors := (workload ^ ": " ^ p) :: !errors) o.Pb.problems)
        workloads)
    [ false; true ];
  List.iter (fun e -> Printf.printf "SMOKE FAILED: %s\n" e) (List.rev !errors);
  if !errors = [] then print_endline "smoke: every workload printed every metric";
  exit (if !errors = [] then 0 else 1)

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke_mode = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W table3, cec or serve");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of one run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced run (1)");
      ("--smoke", Arg.Set smoke_mode, " run every workload's smoke profile and check its metrics");
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1 | --smoke" in
  let die m =
    prerr_endline ("perfbench: " ^ m);
    exit 2
  in
  Arg.parse (Arg.align specs) (fun a -> die ("unexpected argument " ^ a)) usage;
  if !smoke_mode then smoke ();
  if not (List.mem !workload workloads) then die ("unknown --workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then die "--trace expects 0 or 1";
  let trace = !trace = 1 in
  let r =
    run_workload ~workload:!workload ~smoke:false ~seed:!seed
      ~seconds:!seconds ~trace
  in
  ignore (report ~workload:!workload ~seed:!seed ~trace r);
  exit (if (snd r).Pb.problems = [] then 0 else 1)
