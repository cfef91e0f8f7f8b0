(* SAT-engine benchmark: times the CDCL engine against the reference
   (seed) solver on the two SAT workloads the flow actually runs —
   monolithic CEC miters (golden AIG vs its re-expanded mapping) and the
   fault-ATPG sweep (miter-reuse assumption queries vs a fresh miter per
   fault) — checks the engines agree, and writes the measurements to
   BENCH_sat.json.

   Each (benchmark, task, engine) measurement runs in a forked child
   process, like cut_bench: solver instances keep arenas and learnt
   databases on the major heap, and timing one engine under the GC
   pressure of the other would bias the comparison.  Children report
   wall time, solver counters, and the verdicts; the parent checks
   - CEC verdicts are identical between engines,
   - ATPG decided verdicts (detected vs redundant) never conflict, and
   - the incremental sweep leaves no more Unknown faults than rebuild.
   Any disagreement exits nonzero, so the benchmark doubles as a
   differential test.

     dune exec bench/sat_bench.exe                    (fast subset, static)
     dune exec bench/sat_bench.exe -- --full --all-families
     dune exec bench/sat_bench.exe -- --bench t481 --repeat 5 --out my.json *)

let prog = "sat_bench"
let full = ref false
let benches = ref []
let out = ref "BENCH_sat.json"
let repeat = ref 3
let family = ref "static"
let all_families = ref false
let rounds = ref 2
let cec_only = ref false
let budget = ref 0

let specs =
  [
    ("--full", Arg.Set full, " run all 15 benchmarks (default: fast subset)");
    ( "--bench",
      Arg.String (fun s -> benches := s :: !benches),
      "NAME restrict to one benchmark (repeatable)" );
    ( "--out",
      Arg.Set_string out,
      "FILE output JSON path (default BENCH_sat.json)" );
    ( "--repeat",
      Arg.Set_int repeat,
      "N timing repetitions, best-of-N (default 3)" );
    ( "--family",
      Arg.Set_string family,
      "F mapping target family (default static)" );
    ( "--all-families",
      Arg.Set all_families,
      " run every family (the full differential matrix)" );
    ( "--rounds",
      Arg.Set_int rounds,
      "N random fault-sim rounds before ATPG (default 2, few so the SAT \
       sweep has survivors to decide)" );
    ( "--cec-only",
      Arg.Set cec_only,
      " skip the ATPG measurements (cheap full-matrix verdict check)" );
    ( "--conflict-budget",
      Arg.Set_int budget,
      "N cap every solve at N conflicts (default unbounded; needed for \
       the full matrix — the seed engine cannot finish the big monolithic \
       miters unbounded, which is what this subsystem fixes)" );
  ]

type measurement = {
  ms : float;
  st : Solver.stats;
  payload : string;
      (** CEC: the verdict word; ATPG: one status char per fault
          (S/A/R/U = sim-detected / ATPG-detected / redundant / unknown) *)
}

type row = {
  bench : string;
  fam : string;
  faults : int;
  cec_ref : measurement;
  cec_cdcl : measurement;
  atpg_rebuild : measurement;
  atpg_incr : measurement;
}

(* Runs [f] in a forked child; the child prints one line to a pipe and
   exits, the parent returns the line. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (match f () with
      | line ->
          output_string oc (line ^ "\n");
          flush oc;
          exit 0
      | exception e ->
          prerr_endline (Printexc.to_string e);
          exit 2)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      match (snd (Unix.waitpid [] pid), line) with
      | Unix.WEXITED 0, Some line -> line
      | _ ->
          Printf.eprintf "%s: child measurement failed\n" prog;
          exit 2)

(* Best-of-[n] wall time around [task], which fills a fresh stats record
   and returns the payload string; counters come from the last run (the
   workloads are deterministic, so every run counts the same). *)
let measure n task =
  let line =
    in_child (fun () ->
        let best = ref infinity and last = ref None in
        for _ = 1 to n do
          let stats = Solver.stats_create () in
          let t0 = Unix.gettimeofday () in
          let payload = task stats in
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt;
          last := Some (stats, payload)
        done;
        let st, payload = Option.get !last in
        Printf.sprintf "%.6f %d %d %d %d %d %d %s" (1000.0 *. !best)
          st.Solver.sat_solves st.Solver.sat_conflicts st.Solver.sat_decisions
          st.Solver.sat_propagations st.Solver.sat_restarts
          st.Solver.sat_learned payload)
  in
  Scanf.sscanf line "%f %d %d %d %d %d %d %s"
    (fun ms solves conflicts decisions propagations restarts learned payload ->
      let st = Solver.stats_create () in
      st.Solver.sat_solves <- solves;
      st.Solver.sat_conflicts <- conflicts;
      st.Solver.sat_decisions <- decisions;
      st.Solver.sat_propagations <- propagations;
      st.Solver.sat_restarts <- restarts;
      st.Solver.sat_learned <- learned;
      { ms; st; payload })

let verdict_word = function
  | Cec.Equivalent -> "equivalent"
  | Cec.Inequivalent _ -> "inequivalent"
  | Cec.Undecided -> "undecided"

let status_char = function
  | Gate_fault.Detected_sim -> 'S'
  | Gate_fault.Detected_atpg _ -> 'A'
  | Gate_fault.Redundant -> 'R'
  | Gate_fault.Unknown -> 'U'

(* Decided verdicts must not conflict: detected (sim or ATPG) on one side
   and redundant on the other is a soundness bug in one engine.  Unknown
   is a wildcard — the engines search differently, so the conflict budget
   runs out on different faults. *)
let atpg_compatible a b =
  String.length a = String.length b
  &&
  let ok = ref true in
  String.iteri
    (fun i ca ->
      let cb = b.[i] in
      let detected c = c = 'S' || c = 'A' in
      if (detected ca && cb = 'R') || (ca = 'R' && detected cb) then
        ok := false)
    a;
  !ok

let count_unknown s =
  String.fold_left (fun n c -> if c = 'U' then n + 1 else n) 0 s

(* speedup with a 0-denominator guard: --cec-only leaves the ATPG
   measurements at 0ms, and nan/inf are not valid JSON *)
let speedup a b = if b > 0.0 then a /. b else 0.0

let bench_row lib fam_name (e : Bench_suite.entry) =
  let build () =
    let aig = e.Bench_suite.build () in
    let opt = Synth.resyn2rs aig in
    (opt, Mapper.map lib opt)
  in
  let cb = if !budget > 0 then Some !budget else None in
  let cec engine stats =
    let opt, m = build () in
    verdict_word (Cec.check ~engine ?conflict_budget:cb ~stats opt (Mapped.to_aig m))
  in
  let atpg engine stats =
    let _, m = build () in
    let results, _ =
      Gate_fault.analyze ~rounds:!rounds ~seed:2026L ?conflict_budget:cb
        ~atpg:engine ~stats m
    in
    String.init (Array.length results) (fun i ->
        status_char results.(i).Gate_fault.status)
  in
  let cec_ref = measure !repeat (cec Cec.Reference) in
  let cec_cdcl = measure !repeat (cec Cec.Cdcl) in
  let skipped = { ms = 0.0; st = Solver.stats_create (); payload = "" } in
  let atpg_rebuild =
    if !cec_only then skipped else measure !repeat (atpg Gate_fault.Rebuild)
  in
  let atpg_incr =
    if !cec_only then skipped
    else measure !repeat (atpg Gate_fault.Incremental)
  in
  {
    bench = e.Bench_suite.name;
    fam = fam_name;
    faults = String.length atpg_incr.payload;
    cec_ref;
    cec_cdcl;
    atpg_rebuild;
    atpg_incr;
  }

let check_row row =
  let problems = ref [] in
  (* an "undecided" verdict (only possible under --conflict-budget) is a
     wildcard, like Unknown in ATPG: the engines may exhaust the budget
     on different instances, but decided verdicts must never conflict *)
  if
    row.cec_ref.payload <> row.cec_cdcl.payload
    && row.cec_ref.payload <> "undecided"
    && row.cec_cdcl.payload <> "undecided"
  then
    problems :=
      Printf.sprintf "CEC verdict mismatch (%s vs %s)" row.cec_ref.payload
        row.cec_cdcl.payload
      :: !problems;
  if not (atpg_compatible row.atpg_rebuild.payload row.atpg_incr.payload) then
    problems := "ATPG detected/redundant conflict" :: !problems;
  if
    count_unknown row.atpg_incr.payload
    > count_unknown row.atpg_rebuild.payload
  then
    problems :=
      Printf.sprintf "incremental ATPG left more unknowns (%d > %d)"
        (count_unknown row.atpg_incr.payload)
        (count_unknown row.atpg_rebuild.payload)
      :: !problems;
  !problems

let json_measurement b m =
  Printf.bprintf b
    "{\"ms\": %.3f, \"solves\": %d, \"conflicts\": %d, \"decisions\": %d, \
     \"propagations\": %d, \"restarts\": %d, \"learned\": %d}"
    m.ms m.st.Solver.sat_solves m.st.Solver.sat_conflicts
    m.st.Solver.sat_decisions m.st.Solver.sat_propagations
    m.st.Solver.sat_restarts m.st.Solver.sat_learned

let () =
  Arg.parse (Arg.align specs)
    (fun a -> Cli_common.usage_die ~prog ("unexpected argument " ^ a))
    "sat_bench [options]";
  let fams =
    if !all_families then
      Cli_common.parse_families ~prog "all"
    else
      match Cli_common.family_of_name !family with
      | Some f -> [ f ]
      | None -> Cli_common.usage_die ~prog ("unknown --family " ^ !family)
  in
  let entries =
    if !benches <> [] then Cli_common.bench_entries ~prog !benches
    else if !full then Bench_suite.all
    else Cli_common.bench_entries ~prog Cli_common.fast_subset
  in
  let rows =
    List.concat_map
      (fun fam ->
        (* characterize before forking so the children inherit the lib *)
        let lib = Cell_lib.cached fam in
        let fam_name = Cli_common.family_arg_name fam in
        List.map
          (fun (e : Bench_suite.entry) ->
            let row = bench_row lib fam_name e in
            Printf.printf
              "%-10s %-12s cec %s/%s ref=%8.2fms cdcl=%8.2fms x%5.2f | atpg \
               rebuild=%8.2fms incr=%8.2fms x%5.2f unk=%d/%d\n%!"
              row.bench row.fam row.cec_ref.payload row.cec_cdcl.payload
              row.cec_ref.ms row.cec_cdcl.ms
              (speedup row.cec_ref.ms row.cec_cdcl.ms)
              row.atpg_rebuild.ms row.atpg_incr.ms
              (speedup row.atpg_rebuild.ms row.atpg_incr.ms)
              (count_unknown row.atpg_incr.payload)
              (count_unknown row.atpg_rebuild.payload);
            List.iter
              (fun p -> Printf.printf "  DIFFERENTIAL FAILURE: %s\n%!" p)
              (check_row row);
            row)
          entries)
      fams
  in
  let sum f = List.fold_left (fun a row -> a +. f row) 0.0 rows in
  let tot_cec_ref = sum (fun r -> r.cec_ref.ms) in
  let tot_cec_cdcl = sum (fun r -> r.cec_cdcl.ms) in
  let tot_atpg_rebuild = sum (fun r -> r.atpg_rebuild.ms) in
  let tot_atpg_incr = sum (fun r -> r.atpg_incr.ms) in
  let failures = List.concat_map check_row rows in
  Printf.printf
    "total: cec ref=%.2fms cdcl=%.2fms x%.2f | atpg rebuild=%.2fms \
     incr=%.2fms x%.2f %s\n"
    tot_cec_ref tot_cec_cdcl
    (speedup tot_cec_ref tot_cec_cdcl)
    tot_atpg_rebuild tot_atpg_incr
    (speedup tot_atpg_rebuild tot_atpg_incr)
    (if failures = [] then "(engines agree)" else "(ENGINES DISAGREE)");
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "{\n  \"suite\": \"%s\",\n  \"families\": [%s],\n  \"repeat\": %d,\n  \
     \"fault_rounds\": %d,\n  \"conflict_budget\": %d,\n  \"rows\": [\n"
    (if !benches <> [] then "custom" else if !full then "full" else "fast")
    (String.concat ", "
       (List.map
          (fun f -> "\"" ^ Cli_common.family_arg_name f ^ "\"")
          fams))
    !repeat !rounds !budget;
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    {\"bench\": \"%s\", \"family\": \"%s\", \"faults\": %d, \
         \"cec_verdict\": \"%s\", \"cec_identical\": %b, \"atpg_unknown\": \
         {\"rebuild\": %d, \"incremental\": %d},\n     \"cec_ref\": "
        row.bench row.fam row.faults row.cec_cdcl.payload
        (row.cec_ref.payload = row.cec_cdcl.payload)
        (count_unknown row.atpg_rebuild.payload)
        (count_unknown row.atpg_incr.payload);
      json_measurement b row.cec_ref;
      Buffer.add_string b ",\n     \"cec_cdcl\": ";
      json_measurement b row.cec_cdcl;
      Buffer.add_string b ",\n     \"atpg_rebuild\": ";
      json_measurement b row.atpg_rebuild;
      Buffer.add_string b ",\n     \"atpg_incremental\": ";
      json_measurement b row.atpg_incr;
      Printf.bprintf b ",\n     \"cec_speedup\": %.3f, \"atpg_speedup\": %.3f}"
        (speedup row.cec_ref.ms row.cec_cdcl.ms)
        (speedup row.atpg_rebuild.ms row.atpg_incr.ms))
    rows;
  Printf.bprintf b
    "\n  ],\n  \"total\": {\"cec_ref_ms\": %.3f, \"cec_cdcl_ms\": %.3f, \
     \"cec_speedup\": %.3f, \"atpg_rebuild_ms\": %.3f, \
     \"atpg_incremental_ms\": %.3f, \"atpg_speedup\": %.3f, \"agree\": %b}\n}\n"
    tot_cec_ref tot_cec_cdcl
    (speedup tot_cec_ref tot_cec_cdcl)
    tot_atpg_rebuild tot_atpg_incr
    (speedup tot_atpg_rebuild tot_atpg_incr)
    (failures = []);
  let oc = open_out !out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "wrote %s\n" !out;
  exit (if failures = [] then 0 else 1)
