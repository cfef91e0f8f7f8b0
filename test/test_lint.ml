(* Tests for the lint subsystem: a positive run over the real catalog and
   flow, plus deliberately-broken fixtures proving that every analyzer rule
   actually fires.  Well-formed artifacts cannot be made ill-formed through
   the public constructors, so the AIG fixtures use [Aig.unsafe_set_and]
   and the cell/netlist fixtures are built by hand. *)

let has ?sev rule diags =
  List.exists
    (fun (d : Diag.t) ->
      d.Diag.rule = rule
      && match sev with None -> true | Some s -> d.Diag.severity = s)
    diags

let check_fires name ?sev rule diags =
  Alcotest.(check bool) (name ^ " fires " ^ rule) true (has ?sev rule diags)

let check_clean name diags =
  Alcotest.(check int) (name ^ " has no errors") 0
    (List.length (Diag.errors diags))

(* ---------------- cell ERC ---------------- *)

let rec map_widths f (net : Cell_netlist.net) =
  match net with
  | Cell_netlist.D d -> Cell_netlist.D { d with Cell_netlist.width = f d.Cell_netlist.width }
  | Cell_netlist.T (d1, d2) ->
      Cell_netlist.T
        ( { d1 with Cell_netlist.width = f d1.Cell_netlist.width },
          { d2 with Cell_netlist.width = f d2.Cell_netlist.width } )
  | Cell_netlist.S l -> Cell_netlist.S (List.map (map_widths f) l)
  | Cell_netlist.P l -> Cell_netlist.P (List.map (map_widths f) l)

let cell_map_widths f (c : Cell_netlist.cell) =
  {
    c with
    Cell_netlist.pull_up = Option.map (map_widths f) c.Cell_netlist.pull_up;
    pull_down = map_widths f c.Cell_netlist.pull_down;
  }

let spec_of n = (Catalog.find n).Catalog.spec

let test_catalog_clean () =
  let diags = Cell_erc.check_catalog () in
  check_clean "catalog" diags;
  (* the only expected warnings are the paper-documented degraded levels of
     the pass-transistor pseudo family (its Sec. 4.2 "bad choice") *)
  List.iter
    (fun (d : Diag.t) ->
      Alcotest.(check string) "only degraded warnings" "cell-degraded"
        d.Diag.rule;
      match d.Diag.loc with
      | Diag.Cell (fam, _) ->
          Alcotest.(check string) "only on pass-pseudo" "cntfet-pass-pseudo"
            fam
      | _ -> Alcotest.fail "warning not located at a cell")
    (Diag.warnings diags)

let test_contention_floating () =
  (* both networks conduct on A=1, neither on A=0 *)
  let dev =
    {
      Cell_netlist.kind = Cell_netlist.Configured;
      gate = { Cell_netlist.v = 0; ph = true };
      polgate = None;
      on = true;
      width = 1.0;
    }
  in
  let broken =
    {
      Cell_netlist.family = Cell_netlist.Tg_static;
      spec = Gate_spec.lit 0;
      pull_up = Some (Cell_netlist.D dev);
      pull_down = Cell_netlist.D dev;
      bias_width = 0.0;
      restoring_inverter = false;
    }
  in
  let diags = Cell_erc.check_cell ~name:"fixture" broken in
  check_fires "contending cell" ~sev:Diag.Error "cell-contention" diags;
  check_fires "contending cell" ~sev:Diag.Error "cell-floating" diags

let test_degraded () =
  (* a pass-static cell stripped of its restoring inverter emits degraded
     levels while its family still promises full swing *)
  let c = Cell_netlist.elaborate Cell_netlist.Pass_static (spec_of "F01") in
  let broken = { c with Cell_netlist.restoring_inverter = false } in
  let diags = Cell_erc.check_cell ~name:"fixture" broken in
  check_fires "unrestored pass cell" ~sev:Diag.Error "cell-degraded" diags;
  (* with the inverter in place the same cell is clean *)
  check_clean "restored pass cell" (Cell_erc.check_cell c)

let test_function_mismatch () =
  let c = Cell_netlist.elaborate Cell_netlist.Tg_static (spec_of "F02") in
  let broken = { c with Cell_netlist.spec = spec_of "F03" } in
  check_fires "OR network with AND spec" ~sev:Diag.Error "cell-function"
    (Cell_erc.check_cell ~name:"fixture" broken)

let test_sizing () =
  let c = Cell_netlist.elaborate Cell_netlist.Tg_static (spec_of "F00") in
  check_fires "double-width static cell" ~sev:Diag.Error "cell-sizing-path"
    (Cell_erc.check_cell ~name:"fixture" (cell_map_widths (fun w -> 2. *. w) c));
  let p = Cell_netlist.elaborate Cell_netlist.Tg_pseudo (spec_of "F00") in
  check_fires "overgrown bias" ~sev:Diag.Error "cell-sizing-bias"
    (Cell_erc.check_cell ~name:"fixture"
       { p with Cell_netlist.bias_width = 2. *. p.Cell_netlist.bias_width })

let test_width_structure () =
  let c = Cell_netlist.elaborate Cell_netlist.Tg_static (spec_of "F03") in
  check_fires "zero-width devices" ~sev:Diag.Error "cell-width"
    (Cell_erc.check_cell ~name:"fixture" (cell_map_widths (fun _ -> 0.) c));
  check_fires "static cell without pull-up" ~sev:Diag.Error "cell-structure"
    (Cell_erc.check_cell ~name:"fixture" { c with Cell_netlist.pull_up = None })

let test_cmos_xor () =
  check_fires "XOR spec in CMOS" ~sev:Diag.Error "cell-cmos-xor"
    (Cell_erc.check_spec Cell_netlist.Cmos ~name:"F01" (spec_of "F01"))

(* ---------------- AIG lint ---------------- *)

(* inputs a=node 1, b=node 2; first AND is node 3 *)
let two_input_base () =
  let g = Aig.create () in
  let a = Aig.add_input ~name:"a" g in
  let b = Aig.add_input ~name:"b" g in
  (g, a, b)

let test_aig_clean () =
  let g, a, b = two_input_base () in
  Aig.add_output g "o" (Aig.mk_mux g a b (Aig.lnot b));
  Alcotest.(check int) "clean AIG has no diagnostics" 0
    (List.length (Aig_lint.check g))

let test_aig_cycle () =
  let g, a, b = two_input_base () in
  let n = Aig.mk_and g a b in
  Aig.add_output g "o" n;
  Aig.unsafe_set_and g (Aig.node_of n) n a;
  let diags = Aig_lint.check g in
  check_fires "self-loop" ~sev:Diag.Error "aig-cycle" diags;
  check_fires "self-loop" ~sev:Diag.Error "aig-order" diags

let test_aig_order_bookkeeping () =
  (* acyclic but order-violating: node 3 reads node 4, so [Aig.levels]'s
     single index-order pass disagrees with a true longest-path pass *)
  let g, a, b = two_input_base () in
  let n3 = Aig.mk_and g a b in
  let n4 = Aig.mk_and g a (Aig.lnot b) in
  Aig.unsafe_set_and g (Aig.node_of n3) n4 a;
  Aig.add_output g "o" n3;
  let diags = Aig_lint.check g in
  check_fires "forward reference" ~sev:Diag.Error "aig-order" diags;
  check_fires "forward reference" ~sev:Diag.Error "aig-bookkeeping" diags

let test_aig_dup () =
  let g, a, b = two_input_base () in
  let n3 = Aig.mk_and g a b in
  let n4 = Aig.mk_and g a (Aig.lnot b) in
  Aig.add_output g "o" (Aig.mk_and g n3 n4);
  Aig.unsafe_set_and g (Aig.node_of n4) a b;
  check_fires "copied fanins" ~sev:Diag.Error "aig-dup" (Aig_lint.check g)

let test_aig_range () =
  let g, a, b = two_input_base () in
  let n = Aig.mk_and g a b in
  Aig.add_output g "o" n;
  Aig.unsafe_set_and g (Aig.node_of n) (Aig.lit_of_node 99) a;
  check_fires "fanin out of range" ~sev:Diag.Error "aig-range"
    (Aig_lint.check g)

let test_aig_dead () =
  let g, a, b = two_input_base () in
  let x = Aig.mk_and g a b in
  let _y = Aig.mk_and g x (Aig.lnot a) in
  Aig.add_output g "o" (Aig.mk_and g (Aig.lnot a) (Aig.lnot b)) ;
  let diags = Aig_lint.check g in
  check_fires "dead top node" ~sev:Diag.Warning "aig-dangling" diags;
  check_fires "dead chain interior" ~sev:Diag.Warning "aig-unreachable" diags

let test_aig_no_output () =
  let g, a, b = two_input_base () in
  ignore (Aig.mk_and g a b);
  check_fires "outputless graph" ~sev:Diag.Warning "aig-no-output"
    (Aig_lint.check g)

(* ---------------- mapped-netlist lint ---------------- *)

let tt_and2 = 0x8888888888888888L
let tt_var0 = 0xAAAAAAAAAAAAAAAAL

let pi i = { Mapped.driver = Mapped.Pi i; negated = false }
let of_inst j = { Mapped.driver = Mapped.Inst j; negated = false }

(* golden: o = a AND b (node 3, literal 6) *)
let and_golden () =
  let g, a, b = two_input_base () in
  Aig.add_output g "o" (Aig.mk_and g a b);
  g

let and_instance ?(tt = tt_and2) ?(cover = true) () =
  {
    Mapped.cell_name = "F03";
    area = 1.0;
    delay = 1.0;
    drive = None;
    fanin_caps = [||];
    fanins = [| pi 0; pi 1 |];
    tt;
    cover =
      (if cover then
         Some
           {
             Mapped.root_lit = Aig.lit_of_node 3;
             fanin_lits = [| Aig.lit_of_node 1; Aig.lit_of_node 2 |];
             cut_nodes = [| 1; 2 |];
           }
       else None);
  }

let and_netlist ?tt ?cover ?(outputs = [| ("o", of_inst 0) |])
    ?(num_inputs = 2) ?(extra = [||]) () =
  {
    Mapped.lib_name = "fixture";
    tau_ps = 1.0;
    num_inputs;
    input_names = [| "a"; "b" |];
    instances = Array.append [| and_instance ?tt ?cover () |] extra;
    outputs;
  }

let test_map_clean () =
  let golden = and_golden () in
  let m = and_netlist () in
  check_clean "hand-built AND netlist" (Map_lint.check ~golden m);
  (* same netlist through the SAT path *)
  check_clean "AND netlist, SAT path"
    (Map_lint.check ~golden ~tt_max_leaves:1 m)

let test_map_function () =
  let golden = and_golden () in
  check_fires "OR tt on an AND cover" ~sev:Diag.Error "map-cell-function"
    (Map_lint.check ~golden (and_netlist ~tt:0xEEEEEEEEEEEEEEEEL ()));
  check_fires "OR tt on an AND cover, SAT path" ~sev:Diag.Error
    "map-cell-function"
    (Map_lint.check ~golden ~tt_max_leaves:1
       (and_netlist ~tt:0xEEEEEEEEEEEEEEEEL ()))

let test_map_chain () =
  let golden = and_golden () in
  let m = and_netlist () in
  let inst = m.Mapped.instances.(0) in
  let cov =
    {
      Mapped.root_lit = Aig.lit_of_node 3;
      (* claims inverted a; the net really carries positive a *)
      fanin_lits = [| Aig.lit_of_node 1 ~compl:true; Aig.lit_of_node 2 |];
      cut_nodes = [| 1; 2 |];
    }
  in
  let m =
    { m with Mapped.instances = [| { inst with Mapped.cover = Some cov } |] }
  in
  check_fires "fanin carries the wrong literal" ~sev:Diag.Error
    "map-cover-chain"
    (Map_lint.check ~golden m)

let test_map_output () =
  let golden = and_golden () in
  let wrong = { Mapped.driver = Mapped.Inst 0; negated = true } in
  check_fires "inverted output" ~sev:Diag.Error "map-output"
    (Map_lint.check ~golden (and_netlist ~outputs:[| ("o", wrong) |] ()));
  check_fires "renamed output" ~sev:Diag.Warning "map-output-name"
    (Map_lint.check ~golden (and_netlist ~outputs:[| ("z", of_inst 0) |] ()))

let test_map_structure () =
  let bad_ref = { Mapped.driver = Mapped.Inst 5; negated = false } in
  let inst = and_instance () in
  let m =
    and_netlist
      ~extra:[| { inst with Mapped.fanins = [| bad_ref; pi 1 |] } |]
      ()
  in
  let diags = Map_lint.check m in
  check_fires "fanin instance out of range" ~sev:Diag.Error "map-range" diags;
  check_fires "extra instance drives nothing" ~sev:Diag.Warning "map-unused"
    diags;
  let self = { Mapped.driver = Mapped.Inst 0; negated = false } in
  let m =
    and_netlist ~extra:[||] ()
  in
  let inst0 = { (m.Mapped.instances.(0)) with Mapped.fanins = [| self; pi 1 |] } in
  let m = { m with Mapped.instances = [| inst0 |] } in
  check_fires "self-referencing instance" ~sev:Diag.Error "map-order"
    (Map_lint.check m)

let test_map_io_cover () =
  let golden = and_golden () in
  check_fires "PI count mismatch" ~sev:Diag.Error "map-io"
    (Map_lint.check ~golden (and_netlist ~num_inputs:3 ()));
  check_fires "cover stripped" ~sev:Diag.Warning "map-cover-missing"
    (Map_lint.check ~golden (and_netlist ~cover:false ()));
  let m = and_netlist () in
  let inst = m.Mapped.instances.(0) in
  let cov =
    {
      Mapped.root_lit = Aig.lit_of_node 3;
      fanin_lits = [| 2 |];
      cut_nodes = [| 1 |];
    }
  in
  let m =
    { m with Mapped.instances = [| { inst with Mapped.cover = Some cov } |] }
  in
  check_fires "cover arity mismatch" ~sev:Diag.Error "map-cover-shape"
    (Map_lint.check ~golden m)

let test_map_library () =
  let lib = Cell_lib.cached Cell_netlist.Tg_static in
  let m = and_netlist () in
  let inst = m.Mapped.instances.(0) in
  check_fires "unknown cell name" ~sev:Diag.Error "map-cell-unknown"
    (Map_lint.check ~lib
       { m with Mapped.instances = [| { inst with Mapped.cell_name = "BOGUS" } |] });
  (* XOR is in no NPN class with AND/OR, so an F03 instance carrying an
     XOR table is a miswire even though both are 2-input cells *)
  check_fires "XOR tt under an AND cell" ~sev:Diag.Error "map-cell-npn"
    (Map_lint.check ~lib
       { m with Mapped.instances = [| { inst with Mapped.tt = 0x6666666666666666L } |] })

(* support-reduced covers: leaves that are not a structural cut must be
   accepted when (and only when) the composition over the PIs checks out *)
let test_map_support_reduced () =
  let g, a, b = two_input_base () in
  let n3 = Aig.mk_and g a b in
  let n4 = Aig.mk_and g n3 a in
  (* = a AND b *)
  Aig.add_output g "o" n4;
  let inst0 = and_instance () in
  let buf tt =
    {
      Mapped.cell_name = "BUF";
      area = 1.0;
      delay = 1.0;
      drive = None;
      fanin_caps = [||];
      fanins = [| of_inst 0 |];
      tt;
      cover =
        Some
          {
            Mapped.root_lit = n4;
            fanin_lits = [| n3 |];
            (* deliberately NOT a wider structural cut: forces the
               semantic (SAT) fallback path *)
            cut_nodes = [| Aig.node_of n3 |];
          };
    }
  in
  let m tt =
    {
      Mapped.lib_name = "fixture";
      tau_ps = 1.0;
      num_inputs = 2;
      input_names = [| "a"; "b" |];
      instances = [| inst0; buf tt |];
      outputs = [| ("o", of_inst 1) |];
    }
  in
  (* [n3] does not cut cone(n4) — the cone also reaches input a — but a
     buffer of n3 is functionally the root, so only an Info is reported *)
  let diags = Map_lint.check ~golden:g (m tt_var0) in
  check_clean "support-reduced buffer" diags;
  check_fires "support-reduced buffer" ~sev:Diag.Info "map-cover-cut" diags;
  (* an inverter in the same position is semantically refuted *)
  check_fires "support-reduced inverter" ~sev:Diag.Error "map-cell-function"
    (Map_lint.check ~golden:g (m (Int64.lognot tt_var0)))

(* ---------------- full flow ---------------- *)

let test_flow_clean () =
  List.iter
    (fun fam ->
      let e = Bench_suite.find "add-16" in
      let aig = e.Bench_suite.build () in
      check_clean "raw adder AIG" (Aig_lint.check aig);
      let opt = Synth.light aig in
      check_clean "optimized adder AIG" (Aig_lint.check opt);
      let lib = Cell_lib.cached fam in
      let m = Mapper.map lib opt in
      check_clean
        ("mapped adder, " ^ Cell_lib.name lib)
        (Map_lint.check ~lib ~golden:opt m))
    [ Cell_netlist.Tg_static; Cell_netlist.Cmos ]

(* ---------------- diagnostic rendering ---------------- *)

(* Negative fixture: a message carrying embedded tabs, newlines, CRs and
   backslashes (e.g. quoted user input from a parse error) must still render
   as exactly one TSV row of exactly four fields, losslessly. *)
let test_diag_tsv_escaping () =
  let d =
    Diag.errorf ~rule:"input-parse"
      (Diag.Circuit "bad\tname")
      "line 3: unexpected token %S near\n\tcol\r4 (path C:\\tmp)" "a\tb"
  in
  let row = Diag.to_tsv d in
  Alcotest.(check int)
    "one row" 1
    (List.length (String.split_on_char '\n' row));
  Alcotest.(check bool) "no raw CR" false (String.contains row '\r');
  (match String.split_on_char '\t' row with
  | [ sev; rule; loc; msg ] ->
      Alcotest.(check string) "severity field" "error" sev;
      Alcotest.(check string) "rule field" "input-parse" rule;
      Alcotest.(check string) "location field" "bad\\tname" loc;
      Alcotest.(check bool) "message keeps escaped newline" true
        (String.length msg > 0
        && not (String.contains msg '\n')
        && not (String.contains msg '\r'))
  | fields ->
      Alcotest.failf "expected exactly 4 TSV fields, got %d"
        (List.length fields));
  (* escaping is injective: distinct messages stay distinct *)
  let mk m = Diag.to_tsv (Diag.errorf ~rule:"r" (Diag.Circuit "c") "%s" m) in
  Alcotest.(check bool) "tab vs literal backslash-t differ" true
    (mk "a\tb" <> mk "a\\tb");
  (* a tab-free, newline-free finding renders byte-identically to the
     pre-escaping convention *)
  Alcotest.(check string) "plain findings unchanged"
    "warning\tw-rule\tplain\thello world"
    (Diag.to_tsv (Diag.warnf ~rule:"w-rule" (Diag.Circuit "plain") "hello world"))

(* ---------------- dynamic-gate edge cases ---------------- *)

let test_dynamic_edges () =
  Alcotest.(check bool) "0-term GNOR never degrades" false
    (Switchsim.Dynamic.has_degraded_assignment 0);
  Alcotest.(check bool) "1-term GNOR has a degraded assignment" true
    (Switchsim.Dynamic.has_degraded_assignment 1);
  (match Switchsim.Dynamic.gnor [] with
  | Switchsim.Driven (Switchsim.L1, Switchsim.Strong) -> ()
  | _ -> Alcotest.fail "empty GNOR must hold the precharged 1");
  Alcotest.(check bool) "empty GNOR value" true (Switchsim.Dynamic.value [])

let () =
  Alcotest.run "lint"
    [
      ( "cell-erc",
        [
          Alcotest.test_case "catalog clean" `Quick test_catalog_clean;
          Alcotest.test_case "contention/floating" `Quick
            test_contention_floating;
          Alcotest.test_case "degraded" `Quick test_degraded;
          Alcotest.test_case "function mismatch" `Quick test_function_mismatch;
          Alcotest.test_case "sizing" `Quick test_sizing;
          Alcotest.test_case "width/structure" `Quick test_width_structure;
          Alcotest.test_case "cmos xor" `Quick test_cmos_xor;
        ] );
      ( "aig-lint",
        [
          Alcotest.test_case "clean" `Quick test_aig_clean;
          Alcotest.test_case "cycle" `Quick test_aig_cycle;
          Alcotest.test_case "order/bookkeeping" `Quick
            test_aig_order_bookkeeping;
          Alcotest.test_case "duplicates" `Quick test_aig_dup;
          Alcotest.test_case "range" `Quick test_aig_range;
          Alcotest.test_case "dangling/unreachable" `Quick test_aig_dead;
          Alcotest.test_case "no output" `Quick test_aig_no_output;
        ] );
      ( "map-lint",
        [
          Alcotest.test_case "clean" `Quick test_map_clean;
          Alcotest.test_case "function" `Quick test_map_function;
          Alcotest.test_case "chain" `Quick test_map_chain;
          Alcotest.test_case "outputs" `Quick test_map_output;
          Alcotest.test_case "structure" `Quick test_map_structure;
          Alcotest.test_case "io/cover" `Quick test_map_io_cover;
          Alcotest.test_case "library" `Quick test_map_library;
          Alcotest.test_case "support-reduced" `Quick
            test_map_support_reduced;
        ] );
      ( "flow",
        [
          Alcotest.test_case "add-16 clean" `Quick test_flow_clean;
          Alcotest.test_case "diag tsv escaping" `Quick test_diag_tsv_escaping;
          Alcotest.test_case "dynamic edges" `Quick test_dynamic_edges;
        ] );
    ]
