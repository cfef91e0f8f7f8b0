(* The batch workloads (table3, cec).  Each runs one pipeline two
   ways:
   - untraced, through the product flow ([Flow.run_matrix] or [Flow.run]),
     for the end-to-end metrics;
   - traced, as direct calls into each layer's public functions in the
     order the flow makes them, for the per-layer metrics.
   Both give the same mapped cells, so their digests must agree. *)

type step = B | Rw of bool | Rf of bool | Map | Sta | Cec of int

(* The passes [Synth.resyn2rs] composes, in its order.  The traced run
   calls them one by one; the digest check proves the expansion exact. *)
let resyn2rs = [ Rw false; Rf false; B; Rw false; Rw true; B; Rf true; Rw true; B ]

type spec = {
  circuits : string list;
  families : Cell_netlist.family list;
  synth : step list;      (** family-independent prefix, as the layers see it *)
  per_family : step list; (** [Map] onward *)
  flow_script : string;   (** the same pipeline as the flow is handed it *)
  matrix : bool;          (** go through [Flow.run_matrix] (else [Flow.run]) *)
  broken_pairs : int;     (** seeded known-inequivalent miters to check *)
}

(* The conflict budget the cec workload hands to every miter. *)
let cec_budget = 20_000

type verdict = Equivalent | Inequivalent | Undecided | Unchecked

let verdict_name = function
  | Equivalent -> "eq"
  | Inequivalent -> "neq"
  | Undecided -> "undecided"
  | Unchecked -> "-"

type cell = {
  circuit : string;
  family : Cell_netlist.family;
  golden : Aig.t;  (** the AIG the mapping was derived from *)
  mapped : Mapped.t;
  sta_ps : float;
  verdict : verdict;
}

(* Counts that must repeat exactly from run to run. *)
type counts = {
  mutable cut_built : int;  (** synthesis and mapper enumeration *)
  mutable reevals : int;
  mutable conflicts : int;
}

let counts_create () = { cut_built = 0; reevals = 0; conflicts = 0 }

type pass = {
  wall_s : float;
  lat_ms : float list;  (** one per circuit *)
  cells : cell list;
  counts : counts;
}

let digest cells =
  let b = Buffer.create 65536 in
  List.iter
    (fun c ->
      Printf.bprintf b "%s/%s %.17g %s\n%s" c.circuit
        (Cli_common.family_arg_name c.family)
        c.sta_ps (verdict_name c.verdict)
        (Blif.mapped_to_string ~model:c.circuit c.mapped))
    cells;
  Digest.to_hex (Digest.string (Buffer.contents b))

let qor cells =
  ( Pb.geomean (List.map (fun c -> (Mapped.stats c.mapped).Mapped.area) cells),
    Pb.geomean (List.map (fun c -> c.sta_ps) cells) )

let undecided cells = List.length (List.filter (fun c -> c.verdict = Undecided) cells)
let checked cells = List.length (List.filter (fun c -> c.verdict <> Unchecked) cells)

(* The fields the cross-run determinism record holds. *)
let determinism_fields (p : pass) =
  let area, delay = qor p.cells in
  [
    ("digest", digest p.cells);
    ("cut.built", string_of_int p.counts.cut_built);
    ("mapper.reevals", string_of_int p.counts.reevals);
    ("cec.conflicts", string_of_int p.counts.conflicts);
    ("cec_undecided", string_of_int (undecided p.cells));
    ("qor_area", Printf.sprintf "%.17g" area);
    ("qor_delay_ps", Printf.sprintf "%.17g" delay);
  ]

let same_fields ~what a b =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' when v' <> v -> Some (Printf.sprintf "%s: %s differs (%s vs %s)" k what v v')
      | _ -> None)
    a

(* ---------------- untraced: the product flow ---------------- *)

let add_samples counts samples =
  List.iter
    (fun (s : Flow.sample) ->
      Option.iter
        (fun (c : Cut.stats) ->
          counts.cut_built <- counts.cut_built + c.Cut.built;
          counts.reevals <- counts.reevals + c.Cut.reevals)
        s.Flow.sm_cut;
      Option.iter
        (fun (st : Solver.stats) ->
          counts.conflicts <- counts.conflicts + st.Solver.sat_conflicts)
        s.Flow.sm_sat)
    samples

let cell_of_ctx ~circuit ~family (ctx : Flow.ctx) =
  let has rule = List.exists (fun (d : Diag.t) -> d.Diag.rule = rule) ctx.Flow.diags in
  let verdict =
    if has "cec-inequivalent" then Inequivalent
    else if has "cec-undecided" then Undecided
    else if ctx.Flow.verified = Some true then Equivalent
    else Unchecked
  in
  match (ctx.Flow.golden, ctx.Flow.mapped, ctx.Flow.sta) with
  | Some golden, Some mapped, Some sta ->
      { circuit; family; golden; mapped; sta_ps = Sta.abs_delay_ps sta; verdict }
  | _ -> failwith (circuit ^ ": the flow left no mapped, timed netlist")

let flow_pass spec (aigs : (string * Aig.t) list) =
  let config = Flow.default_config in
  let script = Flow.parse_script_exn spec.flow_script in
  let counts = counts_create () in
  let t0 = Pb.now () in
  let last = ref t0 in
  let lat = ref [] in
  let tick () =
    let t = Pb.now () in
    lat := (1000.0 *. (t -. !last)) :: !lat;
    last := t
  in
  let cells =
    if spec.matrix then
      let entries = List.map Bench_suite.find spec.circuits in
      Flow.run_matrix ~domains:1 ~config ~on_result:(fun _ -> tick ()) ~script
        ~families:spec.families entries
      |> Array.to_list
      |> List.concat_map (fun (r : Flow.bench_result) ->
             add_samples counts r.Flow.br_prefix_samples;
             List.map
               (fun (family, ctx, samples) ->
                 add_samples counts samples;
                 cell_of_ctx ~circuit:r.Flow.br_bench ~family ctx)
               r.Flow.br_per_family)
    else
      List.concat_map
        (fun (circuit, aig) ->
          List.map
            (fun family ->
              let ctx, samples =
                Flow.run ~config:{ config with Flow.family } script
                  (Flow.init ~family ~name:circuit aig)
              in
              add_samples counts samples;
              tick ();
              cell_of_ctx ~circuit ~family ctx)
            spec.families)
        aigs
  in
  (* the metric is the timed phase alone: counting happens after [tick] *)
  { wall_s = !last -. t0; lat_ms = List.rev !lat; cells; counts }

(* ---------------- traced: direct layer calls ---------------- *)

let arg = Pb_trace.arg
let argi tr k n = arg tr k (float_of_int n)

(* One domain per circuit, as [Flow.default_config] runs it. *)
let jobs = Flow.default_config.Flow.jobs

let synth_step tr ~circuit aig step =
  let name, run =
    match step with
    | B -> ("synth.balance", fun _ -> Synth.balance aig)
    | Rw z -> ("synth.rewrite", fun stats -> Synth.rewrite ~zero_gain:z ~stats ~jobs aig)
    | Rf z -> ("synth.refactor", fun stats -> Synth.refactor ~zero_gain:z ~stats ~jobs aig)
    | _ -> invalid_arg "synth_step"
  in
  Pb_trace.with_alloc_span tr ~circuit name (fun () ->
      let stats = Cut.stats_create () in
      let out = run stats in
      argi tr "ands_in" (Aig.num_ands aig);
      argi tr "ands_out" (Aig.num_ands out);
      argi tr "cuts_built" stats.Cut.built;
      (out, stats.Cut.built))

let map_params =
  { Mapper.default_params with Mapper.cut_size = Flow.default_config.Flow.cut_size; jobs }

let map_step tr ~circuit ~family aig =
  let lib =
    Pb_trace.with_span tr ~circuit "cell_lib.fetch" (fun () ->
        let lib, status = Cell_lib.cached_with_status family in
        arg tr "hit" (if status = `Hit then 1.0 else 0.0);
        lib)
  in
  Pb_trace.with_alloc_span tr ~circuit "mapper.map" (fun () ->
      let phase = Mapper.phase_ms_create () in
      let m, st = Mapper.map_with_stats ~params:map_params ~phase lib aig in
      arg tr "cuts_ms" phase.Mapper.pm_cuts_ms;
      arg tr "match_ms" phase.Mapper.pm_match_ms;
      arg tr "required_ms" phase.Mapper.pm_required_ms;
      arg tr "recover_ms" phase.Mapper.pm_recover_ms;
      arg tr "extract_ms" phase.Mapper.pm_extract_ms;
      argi tr "built" st.Cut.built;
      argi tr "probes" st.Cut.probes;
      argi tr "reevals" st.Cut.reevals;
      argi tr "skips" st.Cut.reeval_skips;
      (m, st))

let sta_model =
  {
    Sta.unit_loads = Flow.default_config.Flow.unit_loads;
    po_fanout = Flow.default_config.Flow.po_fanout;
  }

let cec_step tr ~circuit ~budget golden m =
  Pb_trace.with_span tr ~circuit "cec.check" (fun () ->
      let stats = Solver.stats_create () in
      let v =
        Cec.check ~conflict_budget:budget ~seed:Flow.default_config.Flow.seed ~stats
          golden (Mapped.to_aig m)
      in
      argi tr "solves" stats.Solver.sat_solves;
      argi tr "conflicts" stats.Solver.sat_conflicts;
      argi tr "propagations" stats.Solver.sat_propagations;
      arg tr "decided" (if v = Cec.Undecided then 0.0 else 1.0);
      let verdict =
        match v with
        | Cec.Equivalent -> Equivalent
        | Cec.Inequivalent _ -> Inequivalent
        | Cec.Undecided -> Undecided
      in
      (verdict, stats.Solver.sat_conflicts))

(* [circuits] pairs a name with how the untraced run obtains its AIG:
   built inside the timed phase (the matrix does that) or prebuilt. *)
let traced_pass tr spec (circuits : (string * [ `Build | `Built of Aig.t ]) list) =
  let counts = counts_create () in
  let t0 = Pb.now () in
  let cells =
    Pb_trace.with_span tr "flow.run" (fun () ->
        List.concat_map
          (fun (circuit, src) ->
            let aig0 =
              match src with
              | `Built a -> a
              | `Build ->
                  Pb_trace.with_span tr ~circuit "circuits.build" (fun () ->
                      (Bench_suite.find circuit).Bench_suite.build ())
            in
            let golden =
              List.fold_left
                (fun aig st ->
                  let out, built = synth_step tr ~circuit aig st in
                  counts.cut_built <- counts.cut_built + built;
                  out)
                aig0 spec.synth
            in
            List.map
              (fun family ->
                let mapped = ref None and sta_ps = ref 0.0 and verdict = ref Unchecked in
                List.iter
                  (function
                    | Map ->
                        let m, st = map_step tr ~circuit ~family golden in
                        counts.cut_built <- counts.cut_built + st.Cut.built;
                        counts.reevals <- counts.reevals + st.Cut.reevals;
                        mapped := Some m
                    | Sta ->
                        let m = Option.get !mapped in
                        Pb_trace.with_span tr ~circuit "sta.analyze" (fun () ->
                            sta_ps := Sta.abs_delay_ps (Sta.analyze ~model:sta_model m))
                    | Cec budget ->
                        let v, conflicts =
                          cec_step tr ~circuit ~budget golden (Option.get !mapped)
                        in
                        counts.conflicts <- counts.conflicts + conflicts;
                        verdict := v
                    | B | Rw _ | Rf _ -> invalid_arg "per-family synthesis step")
                  spec.per_family;
                {
                  circuit;
                  family;
                  golden;
                  mapped = Option.get !mapped;
                  sta_ps = !sta_ps;
                  verdict = !verdict;
                })
              spec.families)
          circuits)
  in
  { wall_s = Pb.now () -. t0; lat_ms = []; cells; counts }

(* Standalone cut enumeration at the mapper's k and limit, once per map
   call and outside the traced pass: it splits the mapper's [cuts_ms]
   into enumeration and arena. *)
let cut_probe tr cells =
  List.iter
    (fun c ->
      Pb_trace.with_alloc_span tr ~circuit:c.circuit "cut.enum" (fun () ->
          let stats = Cut.stats_create () in
          ignore
            (Cut.compute_packed ~stats ?max_cuts:map_params.Mapper.max_cuts c.golden
               ~k:map_params.Mapper.cut_size ~limit:map_params.Mapper.cut_limit);
          argi tr "built" stats.Cut.built;
          argi tr "dominated" stats.Cut.dominated;
          argi tr "sign_rejects" stats.Cut.sign_rejects))
    cells

(* ---------------- setup ---------------- *)

type setup = {
  lib_ms : float;
  build_ms : float;
  ands : int;
  aigs : (string * Aig.t) list;
}

let setup_once spec =
  let t0 = Pb.now () in
  List.iter (fun f -> ignore (Cell_lib.cached f)) spec.families;
  let lib_ms = Pb.ms_since t0 in
  let t1 = Pb.now () in
  let aigs =
    List.map (fun n -> (n, (Bench_suite.find n).Bench_suite.build ())) spec.circuits
  in
  let build_ms = Pb.ms_since t1 in
  let ands = List.fold_left (fun acc (_, a) -> acc + Aig.num_ands a) 0 aigs in
  { lib_ms; build_ms; ands; aigs }

(* Sets up [repeats] times and reports the median total in seconds.  All
   but the last set-up run in children, so each starts cold; the last runs
   here and its libraries and circuits are what the measurements fork
   from. *)
let setup ~repeats spec =
  let cold =
    List.init (repeats - 1) (fun _ ->
        Pb.in_child (fun () ->
            let s = setup_once spec in
            s.lib_ms +. s.build_ms))
  in
  let s = setup_once spec in
  (Pb.median ((s.lib_ms +. s.build_ms) :: cold) /. 1000.0, s)

(* ---------------- checks ---------------- *)

(* The benchmark's own output check: each mapping, re-expanded to an AIG,
   against the circuit as built (before synthesis), by seeded random
   simulation. *)
let sim_check ~seed (s : setup) cells =
  List.filter_map
    (fun c ->
      if Pb.sim_agree ~seed ~rounds:8 (List.assoc c.circuit s.aigs) (Mapped.to_aig c.mapped)
      then None
      else
        Some
          (Printf.sprintf "%s/%s: mapped netlist disagrees with the circuit in simulation"
             c.circuit (Cli_common.family_arg_name c.family)))
    cells

(* Verdicts against known answers.  Every real miter is equivalent (an
   undecided one is not wrong, only unfinished).  Each seeded broken pair
   complements one primary output of a mapping, so it must come back
   inequivalent with an input that really tells the two apart. *)
let verdict_check ~seed ~pairs cells =
  let real =
    List.filter_map
      (fun c ->
        if c.verdict = Inequivalent then
          Some (c.circuit ^ ": a sound mapping was reported inequivalent")
        else None)
      cells
  in
  let rng = Random.State.make [| seed |] in
  let pool = Array.of_list cells in
  let n = Array.length pool in
  let picks = ref [] in
  while List.length !picks < min pairs n do
    let i = Random.State.int rng n in
    if not (List.mem i !picks) then picks := i :: !picks
  done;
  let broken =
    List.filter_map
      (fun i ->
        let c = pool.(i) in
        let b = Mapped.to_aig c.mapped in
        let po = Random.State.int rng (Aig.num_outputs b) in
        Aig.set_output b po (Aig.lnot (snd (Aig.output b po)));
        match Cec.check ~conflict_budget:cec_budget ~seed:(Int64.of_int seed) c.golden b with
        | Cec.Inequivalent cex when Pb.distinguishes c.golden b cex -> None
        | Cec.Inequivalent _ ->
            Some (Printf.sprintf "%s PO %d: the counterexample does not distinguish" c.circuit po)
        | Cec.Equivalent | Cec.Undecided ->
            Some (Printf.sprintf "%s PO %d: a broken pair was not found inequivalent" c.circuit po))
      (List.rev !picks)
  in
  (min pairs n, real @ broken)

(* ---------------- per-layer metrics of a traced pass ---------------- *)

let layer_metrics tr (s : setup) ~untraced_s ~traced_s =
  let self = Pb_trace.total_self_ms tr and targ = Pb_trace.total_arg tr in
  let mw w = w /. 1e6 in
  let synth_spans = [ "synth.balance"; "synth.rewrite"; "synth.refactor" ] in
  (* AIG size into the first and out of the last synthesis pass, per circuit *)
  let first_in = Hashtbl.create 16 and last_out = Hashtbl.create 16 in
  List.iter
    (fun (sp : Pb_trace.span) ->
      if List.mem sp.Pb_trace.name synth_spans then begin
        let a k = List.assoc k sp.Pb_trace.args in
        if not (Hashtbl.mem first_in sp.Pb_trace.circuit) then
          Hashtbl.replace first_in sp.Pb_trace.circuit (a "ands_in");
        Hashtbl.replace last_out sp.Pb_trace.circuit (a "ands_out")
      end)
    (Pb_trace.spans tr);
  let total h = Hashtbl.fold (fun _ v acc -> acc +. v) h 0.0 in
  let cache = Cell_lib.cache_stats () in
  let enum_ms = self "cut.enum" and cuts_ms = targ "mapper.map" "cuts_ms" in
  let built = targ "cut.enum" "built" and dominated = targ "cut.enum" "dominated" in
  let reevals = targ "mapper.map" "reevals" and skips = targ "mapper.map" "skips" in
  let checks = float_of_int (List.length (List.filter (fun (sp : Pb_trace.span) ->
      sp.Pb_trace.name = "cec.check") (Pb_trace.spans tr))) in
  let decided = targ "cec.check" "decided" in
  [
    ("circuits.build_ms", s.build_ms);
    ("circuits.ands", float_of_int s.ands);
    ("cell_lib.build_ms", s.lib_ms);
    ("cell_lib.entries", float_of_int cache.Cell_lib.entries);
    ("cell_lib.hits", float_of_int cache.Cell_lib.hits);
    ("cell_lib.misses", float_of_int cache.Cell_lib.misses);
    ("synth.balance_ms", self "synth.balance");
    ("synth.rewrite_ms", self "synth.rewrite");
    ("synth.refactor_ms", self "synth.refactor");
    ("synth.ands_ratio", Pb.ratio (total last_out) (total first_in));
    ("synth.cuts_built", Pb.sum (List.map (fun n -> targ n "cuts_built") synth_spans));
    ("synth.alloc_mw", mw (Pb.sum (List.map (fun n -> targ n "alloc_w") synth_spans)));
    ("cut.enum_ms", enum_ms);
    ("cut.built", built);
    ("cut.dominated", dominated);
    ("cut.keep_ratio", Pb.ratio (built -. dominated) built);
    ("cut.sign_rejects", targ "cut.enum" "sign_rejects");
    ("cut.alloc_mw", mw (targ "cut.enum" "alloc_w"));
    ("mapper.cuts_ms", cuts_ms);
    ("mapper.arena_ms", cuts_ms -. enum_ms);
    ("mapper.match_ms", targ "mapper.map" "match_ms");
    ("mapper.required_ms", targ "mapper.map" "required_ms");
    ("mapper.recover_ms", targ "mapper.map" "recover_ms");
    ("mapper.extract_ms", targ "mapper.map" "extract_ms");
    ("mapper.probes", targ "mapper.map" "probes");
    ("mapper.reevals", reevals);
    ("mapper.skip_ratio", Pb.ratio skips (reevals +. skips));
    ("mapper.alloc_mw", mw (targ "mapper.map" "alloc_w"));
    ("sta.analyze_ms", self "sta.analyze");
    ("cec.check_ms", self "cec.check");
    ("cec.solves", targ "cec.check" "solves");
    ("cec.conflicts", targ "cec.check" "conflicts");
    ("cec.propagations", targ "cec.check" "propagations");
    ("cec.decided_ratio", Pb.ratio decided checks);
    ("cec.undecided", checks -. decided);
    ("flow.overhead_ms", self "flow.run");
    ("trace.overhead_pct", 100.0 *. Pb.ratio (traced_s -. untraced_s) untraced_s);
  ]

(* Layer self times of the traced pass; they sum to its wall time. *)
let self_time_notes tr ~traced_s =
  let rows =
    List.filter (fun (l, _) -> l <> "cut") (Pb_trace.layer_self_ms tr)
  in
  Printf.sprintf "traced pass %.1f ms = %s" (1000.0 *. traced_s)
    (String.concat " + "
       (List.map (fun (l, ms) -> Printf.sprintf "%s %.1f" l ms) rows))
  :: List.map
       (fun (l, ms) ->
         Printf.sprintf "  self %-9s %10.1f ms  %5.1f%%" l ms
           (100.0 *. Pb.ratio ms (1000.0 *. traced_s)))
       rows

(* ---------------- the workload ---------------- *)

type measured = {
  walls : float list;  (** one per pass *)
  lats : float list list;  (** per pass, one per circuit in pass order *)
  fields : (string * string) list;
  area : float;
  delay : float;
  decided_ratio : float;
  rss_mb : float;
  attempted : int;
  failures : string list;  (** failed output checks *)
  drift : string list;     (** passes of the run that disagree *)
}

let checks spec ~seed s (p : pass) =
  if spec.broken_pairs > 0 then
    let pairs, problems = verdict_check ~seed ~pairs:spec.broken_pairs p.cells in
    (checked p.cells + pairs, problems)
  else (List.length p.cells, sim_check ~seed s p.cells)

(* Untraced passes in a child: at least one, then another while it is
   expected to end less than half a pass after [seconds], so the run
   makes the number of passes that best fills [seconds].  Every pass must
   reproduce the first pass's digest and counts. *)
let measure spec ~seed ~seconds s =
  Pb.in_child (fun () ->
      let t0 = Pb.now () in
      let first = flow_pass spec s.aigs in
      (* read before later passes run on top of the retained first one, so
         the figure does not depend on how many passes fit in [seconds] *)
      let rss_mb = Pb.peak_rss_mb 0 in
      let fields = determinism_fields first in
      let rec more acc =
        let typical = Pb.median (first.wall_s :: List.map (fun (w, _, _) -> w) acc) in
        if Pb.now () -. t0 +. (typical /. 2.0) >= seconds then List.rev acc
        else
          let p = flow_pass spec s.aigs in
          more ((p.wall_s, p.lat_ms, determinism_fields p) :: acc)
      in
      let rest = more [] in
      let attempted, failures = checks spec ~seed s first in
      let drift =
        List.concat_map (fun (_, _, f) -> same_fields ~what:"a later pass vs the first" f fields) rest
      in
      let area, delay = qor first.cells in
      let n = checked first.cells in
      {
        walls = first.wall_s :: List.map (fun (w, _, _) -> w) rest;
        lats = first.lat_ms :: List.map (fun (_, l, _) -> l) rest;
        fields;
        area;
        delay;
        decided_ratio =
          (if n = 0 then 1.0
           else float_of_int (n - undecided first.cells) /. float_of_int n);
        rss_mb;
        attempted;
        failures;
        drift;
      })

(* The time of a pass, in seconds, with each circuit's time the median
   over the passes: a slow spell of a shared host then moves one sample
   of the circuits it overlaps, not the whole figure.  With one pass it
   is that pass's wall time. *)
let median_pass lats =
  let passes = List.map Array.of_list lats in
  let n = Array.length (List.hd passes) in
  Pb.sum (List.init n (fun i -> Pb.median (List.map (fun a -> a.(i)) passes))) /. 1000.0

(* One run of a batch workload; [key] names its determinism record. *)
let run ~key ~repeats ~meta spec ~seed ~seconds ~trace : Pb.outcome =
  let setup_s, s = setup ~repeats spec in
  if not trace then begin
    let m = measure spec ~seed ~seconds s in
    let wall_s = median_pass m.lats in
    let drift = m.drift @ Pb.repeat_check ~key m.fields in
    {
      Pb.attempted = m.attempted;
      failed = List.length m.failures;
      problems = m.failures @ drift;
      metrics =
        [
          ("setup_s", setup_s);
          ("wall_s", wall_s);
          ("peak_rss_mb", m.rss_mb);
          ("qor_area", m.area);
          ("qor_delay_ps", m.delay);
          (* an operation of a batch workload is a whole pass: single
             circuits are too short to time steadily on a shared host.
             Its median is [wall_s]'s. *)
          ("p50_ms", 1000.0 *. wall_s);
          ("p95_ms", 1000.0 *. Pb.quantile 0.95 m.walls);
          ("decided_ratio", m.decided_ratio);
        ];
      notes =
        [
          Printf.sprintf "measured passes: %d, walls %s s" (List.length m.walls)
            (String.concat " " (List.map (Printf.sprintf "%.3f") m.walls));
          (let per_circuit = List.concat m.lats in
           Printf.sprintf "time per circuit: median %.1f ms, max %.1f ms over %d"
             (Pb.median per_circuit) (List.fold_left Float.max 0.0 per_circuit)
             (List.length per_circuit));
        ];
    }
  end
  else begin
    let untraced_s, untraced_fields =
      Pb.in_child (fun () ->
          let p = flow_pass spec s.aigs in
          (p.wall_s, determinism_fields p))
    in
    let circuits =
      List.map (fun (n, a) -> (n, if spec.matrix then `Build else `Built a)) s.aigs
    in
    let tr, traced_s, fields, metrics, attempted, failures =
      Pb.in_child (fun () ->
          let tr = Pb_trace.create () in
          let p = traced_pass tr spec circuits in
          let fields = determinism_fields p in
          cut_probe tr p.cells;
          let attempted, failures = checks spec ~seed s p in
          let metrics = layer_metrics tr s ~untraced_s:untraced_s ~traced_s:p.wall_s in
          (tr, p.wall_s, fields, metrics, attempted, failures))
    in
    let drift =
      same_fields ~what:"traced vs untraced" fields untraced_fields
      @ Pb.repeat_check ~key fields
    in
    let file = Pb.trace_file ~key ~seed in
    Pb.write_file file (Pb_trace.to_chrome_json tr ~meta);
    {
      Pb.attempted;
      failed = List.length failures;
      problems = failures @ drift;
      metrics;
      notes =
        (Printf.sprintf "untraced pass %.3f s, traced pass %.3f s; spans in %s" untraced_s
           traced_s file)
        :: self_time_notes tr ~traced_s;
    }
  end
