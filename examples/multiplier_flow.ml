(* The multiplier experiment: C6288 (a 16x16 carry-save array multiplier)
   shows the largest CNTFET speed-up in the paper (~10x).  This example
   runs the full flow on the multiplier, verifies the mapping by random
   simulation against the original circuit, and prints the Table 3 row.

     dune exec examples/multiplier_flow.exe *)

let () =
  let aig = Arith.multiplier 16 in
  Format.printf "C6288-like multiplier: %a@." Aig.pp_stats aig;
  let opt = Synth.resyn2rs aig in
  Format.printf "after resyn2rs:        %a@." Aig.pp_stats opt;

  (* 512 random 32-bit multiplications against the mapped netlist *)
  let check mapped =
    Mapped.agrees_by_simulation ~seed:1234L ~rounds:8 aig mapped
  in
  let cmos_ps = ref nan in
  List.iter
    (fun family ->
      let lib = Cell_lib.cached family in
      let m = Mapper.map lib opt in
      let s = Mapped.stats m in
      if family = Cell_netlist.Cmos then cmos_ps := s.Mapped.abs_delay_ps;
      Format.printf "%-18s %a   verified=%b@." (Cell_lib.name lib)
        Mapped.pp_stats m (check m))
    [ Cell_netlist.Cmos; Cell_netlist.Tg_static; Cell_netlist.Tg_pseudo ];
  let s =
    Mapped.stats (Mapper.map (Cell_lib.cached Cell_netlist.Tg_static) opt)
  in
  Format.printf "static speed-up over CMOS: %.1fx (paper: ~10x on C6288)@."
    (!cmos_ps /. s.Mapped.abs_delay_ps)
