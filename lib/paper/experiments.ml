(* ---------------- Table 1 ---------------- *)

let render_table1 () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "# Table 1 — ambipolar CNTFET gate catalog\n\n";
  Buffer.add_string b "| Gate | Function | Inputs | XORs | CMOS-expressible |\n";
  Buffer.add_string b "|------|----------|--------|------|------------------|\n";
  List.iter
    (fun (e : Catalog.entry) ->
      Printf.bprintf b "| %s | `%s` | %d | %d | %s |\n" e.Catalog.name
        (Format.asprintf "%a" Gate_spec.pp e.Catalog.spec)
        (Gate_spec.arity e.Catalog.spec)
        (Gate_spec.num_xors e.Catalog.spec)
        (if Catalog.is_cmos_expressible e then "yes" else "")
      )
    Catalog.all;
  Printf.bprintf b "\n%d gates total; %d CMOS-expressible (the paper: 46 vs 7).\n"
    (List.length Catalog.all)
    (List.length Catalog.cmos_subset);
  Buffer.contents b

(* ---------------- Table 2 ---------------- *)

let published_of family gate =
  let row = Paper_data.table2_find gate in
  match family with
  | Cell_netlist.Tg_static -> Some row.Paper_data.tg_static
  | Cell_netlist.Tg_pseudo -> Some row.Paper_data.tg_pseudo
  | Cell_netlist.Pass_pseudo -> Some row.Paper_data.pass_pseudo
  | Cell_netlist.Cmos -> row.Paper_data.cmos
  | Cell_netlist.Pass_static -> None

let table2_families =
  (* Pass_static is characterized too (Sec. 3.2 discusses and dismisses
     it); the paper prints no column for it, so it appears computed-only. *)
  [ Cell_netlist.Tg_static; Cell_netlist.Tg_pseudo; Cell_netlist.Pass_pseudo;
    Cell_netlist.Pass_static; Cell_netlist.Cmos ]

let render_table2 () =
  let b = Buffer.create 16384 in
  Buffer.add_string b
    "# Table 2 — library characterization (computed vs published)\n\n\
     T = transistors, A = normalized area, w/a = worst/average FO4 delay\n\
     normalized to tau (tau1 = 0.59 ps CNTFET, tau2 = 3.00 ps CMOS).\n";
  List.iter
    (fun family ->
      Printf.bprintf b "\n## %s\n\n" (Cell_netlist.family_name family);
      Buffer.add_string b
        "| Gate | T | A | FO4 w | FO4 a | paper T | paper A | paper w | paper a |\n\
         |------|---|---|-------|-------|---------|---------|---------|----------|\n";
      let rows = Charlib.characterize_catalog family in
      List.iter
        (fun (r : Charlib.row) ->
          match published_of family r.Charlib.name with
          | Some p ->
              Printf.bprintf b
                "| %s | %d | %.2f | %.2f | %.2f | %d | %.1f | %.1f | %.1f |\n"
                r.Charlib.name r.Charlib.transistors r.Charlib.area
                r.Charlib.fo4_worst r.Charlib.fo4_avg p.Paper_data.t
                p.Paper_data.a p.Paper_data.w p.Paper_data.avg
          | None ->
              Printf.bprintf b "| %s | %d | %.2f | %.2f | %.2f | – | – | – | – |\n"
                r.Charlib.name r.Charlib.transistors r.Charlib.area
                r.Charlib.fo4_worst r.Charlib.fo4_avg)
        rows;
      let t, a, w, v = Charlib.averages rows in
      Printf.bprintf b "| **avg** | %.1f | %.1f | %.1f | %.1f | | | | |\n" t a w v)
    table2_families;
  Buffer.contents b

(* ---------------- ablation libraries ---------------- *)

let published_library family =
  let entries =
    match family with
    | Cell_netlist.Cmos -> Catalog.cmos_subset
    | _ -> Catalog.all
  in
  let cells =
    List.mapi
      (fun i (e : Catalog.entry) ->
        let gc =
          match published_of family e.Catalog.name with
          | Some gc -> gc
          | None -> invalid_arg "published_library"
        in
        let base_tt = Gate_spec.tt6 e.Catalog.spec in
        {
          Cell_lib.id = i;
          name =
            (if family = Cell_netlist.Cmos then Cell_lib.cmos_cell_name e.Catalog.name
             else e.Catalog.name);
          arity = Gate_spec.arity e.Catalog.spec;
          tt =
            (if family = Cell_netlist.Cmos then Int64.lognot base_tt else base_tt);
          area = gc.Paper_data.a;
          delay = gc.Paper_data.w;
          timing = None;
        })
      entries
  in
  Cell_lib.of_cells
    ~name:(Cell_netlist.family_name family ^ "(paper)")
    ~free_phases:(family <> Cell_netlist.Cmos)
    ~tau_ps:(Charlib.tau_ps family) cells

(* Without free phases the library needs an explicit inverter cell,
   modeled by F00. *)
let without_free_polarity lib =
  Cell_lib.of_cells
    ~name:(Cell_lib.name lib ^ "(no-free-pol)")
    ~free_phases:false ~tau_ps:(Cell_lib.tau_ps lib)
    (List.map
       (fun (c : Cell_lib.cell) ->
         if c.Cell_lib.name = "F00" then
           { c with Cell_lib.tt = Int64.lognot c.Cell_lib.tt }
         else c)
       (Cell_lib.cells lib))

(* ---------------- Table 3 ---------------- *)

type t3_row = {
  bench : string;
  static_r : Mapped.stats;
  pseudo_r : Mapped.stats;
  cmos_r : Mapped.stats;
}

let table3_families =
  [ Cell_netlist.Tg_static; Cell_netlist.Tg_pseudo; Cell_netlist.Cmos ]

let run_table3 ?(config = Flow.default_config) ?benches () =
  let entries =
    match benches with
    | None -> Bench_suite.all
    | Some names -> List.map Bench_suite.find names
  in
  let results =
    Flow.run_matrix ~domains:(Flow.Runner.recommended_domains ()) ~config
      ~script:(Flow.parse_script_exn "resyn2rs; map; verify")
      ~families:table3_families entries
  in
  let unverified =
    List.concat_map
      (fun (r : Flow.bench_result) ->
        List.filter_map
          (fun (family, (ctx : Flow.ctx), _) ->
            if ctx.Flow.verified = Some true then None
            else Some (r.Flow.br_bench ^ "/" ^ Cell_netlist.family_name family))
          r.Flow.br_per_family)
      (Array.to_list results)
  in
  if unverified <> [] then
    failwith
      ("mapping disagrees with its source AIG: " ^ String.concat ", " unverified);
  let stats (r : Flow.bench_result) family =
    let _, (ctx : Flow.ctx), _ =
      List.find (fun (f, _, _) -> f = family) r.Flow.br_per_family
    in
    Mapped.stats (Option.get ctx.Flow.mapped)
  in
  List.map
    (fun (r : Flow.bench_result) ->
      {
        bench = r.Flow.br_bench;
        static_r = stats r Cell_netlist.Tg_static;
        pseudo_r = stats r Cell_netlist.Tg_pseudo;
        cmos_r = stats r Cell_netlist.Cmos;
      })
    (Array.to_list results)

let favg f rows =
  List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows)

let summarize rows =
  let g sel (r : t3_row) = float_of_int (sel r).Mapped.gates in
  let a sel (r : t3_row) = (sel r).Mapped.area in
  let l sel (r : t3_row) = float_of_int (sel r).Mapped.levels in
  let d sel (r : t3_row) = (sel r).Mapped.norm_delay in
  let abs_ sel (r : t3_row) = (sel r).Mapped.abs_delay_ps in
  let sta_abs sel (r : t3_row) = (sel r).Mapped.sta_abs_delay_ps in
  let st r = r.static_r and ps r = r.pseudo_r and cm r = r.cmos_r in
  let red f sel = 1.0 -. (favg (f sel) rows /. favg (f cm) rows) in
  let speedup sel = favg (fun r -> abs_ cm r /. abs_ sel r) rows in
  let sta_speedup sel = favg (fun r -> sta_abs cm r /. sta_abs sel r) rows in
  [
    ("gate_reduction_static", red g st);
    ("gate_reduction_pseudo", red g ps);
    ("area_reduction_static", red a st);
    ("area_reduction_pseudo", red a ps);
    ("level_reduction_static", red l st);
    ("level_reduction_pseudo", red l ps);
    ("delay_reduction_static", red d st);
    ("delay_reduction_pseudo", red d ps);
    ("speedup_static", speedup st);
    ("speedup_pseudo", speedup ps);
    ("sta_speedup_static", sta_speedup st);
    ("sta_speedup_pseudo", sta_speedup ps);
  ]

let render_table3 rows =
  let b = Buffer.create 16384 in
  Buffer.add_string b
    "# Table 3 — technology mapping results (computed | paper)\n\n\
     Per benchmark and library: gate count, normalized area, logic levels,\n\
     normalized delay and absolute delay (ps); `sta ps` is the\n\
     load-aware STA delay (real fanout loads, FO4 outputs) alongside the\n\
     paper's fixed unit-load convention.\n\n";
  Buffer.add_string b
    "| Bench | lib | gates | area | levels | delay | ps | sta ps | paper gates | paper area | paper levels | paper delay | paper ps |\n\
     |-------|-----|-------|------|--------|-------|----|--------|------------|-----------|--------------|-------------|----------|\n";
  List.iter
    (fun r ->
      let paper = try Some (Paper_data.table3_find r.bench) with Not_found -> None in
      let line name (s : Mapped.stats) (p : Paper_data.mapping_result option) =
        match p with
        | Some p ->
            Printf.bprintf b
              "| %s | %s | %d | %.1f | %d | %.1f | %.1f | %.1f | %d | %.1f | %d | %.1f | %.1f |\n"
              r.bench name s.Mapped.gates s.Mapped.area s.Mapped.levels
              s.Mapped.norm_delay s.Mapped.abs_delay_ps
              s.Mapped.sta_abs_delay_ps p.Paper_data.gates
              p.Paper_data.area p.Paper_data.levels p.Paper_data.norm_delay
              p.Paper_data.abs_delay_ps
        | None ->
            Printf.bprintf b
              "| %s | %s | %d | %.1f | %d | %.1f | %.1f | %.1f | | | | | |\n"
              r.bench name s.Mapped.gates s.Mapped.area s.Mapped.levels
              s.Mapped.norm_delay s.Mapped.abs_delay_ps
              s.Mapped.sta_abs_delay_ps
      in
      line "static" r.static_r
        (Option.map (fun p -> p.Paper_data.static) paper);
      line "pseudo" r.pseudo_r
        (Option.map (fun p -> p.Paper_data.pseudo) paper);
      line "cmos" r.cmos_r
        (Option.map (fun p -> p.Paper_data.cmos_map) paper))
    rows;
  Buffer.add_string b "\n## Aggregate improvements vs CMOS\n\n";
  Buffer.add_string b "| metric | computed | paper |\n|--------|----------|-------|\n";
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k Paper_data.aggregates with
      | Some p -> Printf.bprintf b "| %s | %.3f | %.3f |\n" k v p
      | None -> Printf.bprintf b "| %s | %.3f | |\n" k v)
    (summarize rows);
  Buffer.contents b

let render_fig6 rows =
  (* CMOS delay over static and over pseudo delay, under [sel]'s model *)
  let ratio sel (r : t3_row) : float * float =
    (sel r.cmos_r /. sel r.static_r, sel r.cmos_r /. sel r.pseudo_r)
  in
  let unit_load (s : Mapped.stats) = s.Mapped.abs_delay_ps in
  let sta (s : Mapped.stats) = s.Mapped.sta_abs_delay_ps in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "# Figure 6 — absolute-delay ratio of CMOS to CNTFET implementations\n\n\
     (bars of the paper's figure; paper values derived from Table 3;\n\
     `sta` columns use the load-aware STA delay on both sides)\n\n\
     | Bench | static (computed) | pseudo (computed) | static (sta) | pseudo (sta) | static (paper) | pseudo (paper) |\n\
     |-------|-------------------|-------------------|--------------|--------------|----------------|----------------|\n";
  List.iter
    (fun r ->
      let s, p = ratio unit_load r and ss, sp = ratio sta r in
      let ps, pp =
        match
          List.find_opt (fun (n, _, _) -> n = r.bench) Paper_data.fig6_speedups
        with
        | Some (_, a, c) -> (a, c)
        | None -> (nan, nan)
      in
      Printf.bprintf b "| %s | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f |\n"
        r.bench s p ss sp ps pp)
    rows;
  Printf.bprintf b "| **avg** | %.2f | %.2f | %.2f | %.2f | %.1f | %.1f |\n"
    (favg (fun r -> fst (ratio unit_load r)) rows)
    (favg (fun r -> snd (ratio unit_load r)) rows)
    (favg (fun r -> fst (ratio sta r)) rows)
    (favg (fun r -> snd (ratio sta r)) rows)
    (List.assoc "speedup_static" Paper_data.aggregates)
    (List.assoc "speedup_pseudo" Paper_data.aggregates);
  Buffer.contents b
