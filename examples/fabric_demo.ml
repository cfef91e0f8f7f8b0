(* Sec. 5 of the paper proposes regular fabrics of interleaved generalized
   NOR/NAND blocks, functionalized in-field through the polarity gates.
   This example maps an adder to the static CNTFET library and places the
   mapped cells onto such a fabric, reporting utilization and the number of
   in-field configuration bits.

     dune exec examples/fabric_demo.exe *)

let () =
  let aig = Arith.adder 16 in
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn "resyn2rs; map(family=static); verify")
      (Flow.init ~name:"add-16" aig)
  in
  if ctx.Flow.verified <> Some true then failwith "mapping not verified";
  let mapped = Option.get ctx.Flow.mapped in
  Format.printf "mapped: %a@." Mapped.pp_stats mapped;

  let gates = (Mapped.stats mapped).Mapped.gates in
  let side = 1 + int_of_float (sqrt (float_of_int (2 * gates))) in
  let fab = Fabric.create ~rows:side ~cols:side in
  Format.printf "fabric: %dx%d checkerboard of GNOR/GNAND blocks@."
    (Fabric.rows fab) (Fabric.cols fab);

  let p =
    match Fabric.place fab mapped with
    | Ok p -> p
    | Error e ->
        prerr_endline (Fabric.error_message e);
        exit 1
  in
  Format.printf "%a@." Fabric.pp_placement p;

  (* show the first few block configurations *)
  Format.printf "first configured tiles:@.";
  List.iteri
    (fun i (row, col, (c : Fabric.config)) ->
      if i < 8 then
        Format.printf "  (%2d,%2d) %s block <- %s, polarity bits %02x@." row col
          (match Fabric.block_type fab row col with
          | Fabric.Gnor -> "GNOR "
          | Fabric.Gnand -> "GNAND")
          c.Fabric.cell c.Fabric.polarities)
    p.Fabric.placed;
  Format.printf "per-block configuration: %d bits (function select + polarity)@."
    Fabric.config_bits_per_block
