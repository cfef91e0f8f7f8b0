(* Quickstart: build a circuit, optimize, map to the ambipolar CNTFET
   static library, inspect the result.

     dune exec examples/quickstart.exe *)

let () =
  (* an 8-bit ripple adder built through the bit-vector helpers *)
  let aig = Arith.adder 8 in
  Format.printf "circuit:   %a@." Aig.pp_stats aig;

  (* the whole flow as one script: resyn2rs-style optimization, mapping to
     the transmission-gate static family, simulation-based verification *)
  let ctx, _ =
    Flow.run
      (Flow.parse_script_exn "resyn2rs; map(family=static); verify")
      (Flow.init ~name:"add-8" aig)
  in
  if ctx.Flow.verified <> Some true then failwith "mapping not verified";
  let mapped = Option.get ctx.Flow.mapped in
  Format.printf "optimized: %a@." Aig.pp_stats ctx.Flow.aig;
  Format.printf "mapped:    %a@." Mapped.pp_stats mapped;

  (* which library cells were used?  XOR-rich cells (F01, F04...) are what
     the paper's library buys over CMOS. *)
  Format.printf "cells:@.";
  List.iter
    (fun (name, count) -> Format.printf "  %-4s x%d@." name count)
    (Mapped.count_cells mapped);

  (* evaluate the mapped netlist: 23 + 42 = 65 *)
  let bits v = Array.init 8 (fun i -> v land (1 lsl i) <> 0) in
  let input = Array.concat [ bits 23; bits 42; [| false |] ] in
  let out = Mapped.eval mapped input in
  let value =
    Array.to_list out |> List.rev
    |> List.fold_left (fun acc b -> (2 * acc) + if b then 1 else 0) 0
  in
  Format.printf "23 + 42 computed by the mapped netlist: %d@." value
