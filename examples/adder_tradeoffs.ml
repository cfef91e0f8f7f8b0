(* The paper's motivating workload: n-bit adders are XOR-rich, so the
   ambipolar library shines on them.  This example sweeps adder widths and
   prints the area/delay ratios vs CMOS for both CNTFET families — the
   add-16/32/64 rows of Table 3.

     dune exec examples/adder_tradeoffs.exe *)

let () =
  Format.printf
    "width | family        | gates | area    | levels | delay | speedup@.";
  Format.printf
    "------+---------------+-------+---------+--------+-------+--------@.";
  List.iter
    (fun width ->
      let ctx, _ =
        Flow.run (Flow.parse_script_exn "resyn2rs")
          (Flow.init ~name:"adder" (Arith.adder width))
      in
      let results =
        List.map
          (fun family ->
            let ctx, _ =
              Flow.run (Flow.parse_script_exn "map") { ctx with Flow.family }
            in
            let m = Option.get ctx.Flow.mapped in
            (m.Mapped.lib_name, Mapped.stats m))
          [ Cell_netlist.Tg_static; Cell_netlist.Tg_pseudo; Cell_netlist.Cmos ]
      in
      let cmos_ps =
        match List.rev results with
        | (_, s) :: _ -> s.Mapped.abs_delay_ps
        | [] -> nan
      in
      List.iter
        (fun (name, (s : Mapped.stats)) ->
          Format.printf "%5d | %-13s | %5d | %7.1f | %6d | %5.0f | %5.1fx@."
            width name s.Mapped.gates s.Mapped.area s.Mapped.levels
            s.Mapped.norm_delay
            (cmos_ps /. s.Mapped.abs_delay_ps))
        results)
    [ 8; 16; 32; 64 ];
  Format.printf
    "@.(speedup = CMOS absolute delay / this library's absolute delay;@.";
  Format.printf
    " the technology factor tau1/tau2 = 0.59/3.00 ps is included)@."
