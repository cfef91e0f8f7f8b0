type gate_char = { t : int; a : float; w : float; avg : float }

type table2_row = {
  gate : string;
  tg_static : gate_char;
  tg_pseudo : gate_char;
  pass_pseudo : gate_char;
  cmos : gate_char option;
}

let gc t a w avg = { t; a; w; avg }

(* Table 2 of the paper, transcribed row by row:
   per gate, (T, A, FO4 worst, FO4 avg) for the transmission-gate static,
   transmission-gate pseudo, and pass-transistor pseudo CNTFET families,
   plus static CMOS where the topology exists. *)
let table2 =
  let row gate s p pp cm =
    { gate; tg_static = s; tg_pseudo = p; pass_pseudo = pp; cmos = cm }
  in
  [
    row "F00" (gc 2 2.0 5.0 5.0) (gc 2 1.7 7.0 7.0) (gc 2 1.7 7.0 7.0)
      (Some (gc 2 2.0 5.0 5.0));
    row "F01" (gc 4 2.7 4.0 4.0) (gc 3 2.1 5.7 5.7) (gc 2 3.0 13.7 13.7) None;
    row "F02" (gc 4 6.0 8.0 8.0) (gc 3 3.0 8.3 8.3) (gc 3 3.0 8.3 8.3)
      (Some (gc 4 10.0 8.7 8.7));
    row "F03" (gc 4 6.0 8.0 8.0) (gc 3 5.7 13.7 13.7) (gc 3 5.7 13.7 13.7)
      (Some (gc 4 8.0 7.3 7.3));
    row "F04" (gc 6 7.0 8.2 6.6) (gc 5 3.4 8.8 7.4) (gc 3 4.3 15.0 13.2) None;
    row "F05" (gc 6 7.0 8.2 6.6) (gc 5 6.6 13.7 10.8) (gc 3 13.7 27.0 23.4) None;
    row "F06" (gc 8 8.0 10.7 8.0) (gc 5 3.9 11.0 8.6) (gc 3 5.7 27.0 19.9) None;
    row "F07" (gc 8 8.0 10.7 8.0) (gc 5 7.4 18.1 13.4) (gc 3 11.0 48.3 34.1) None;
    row "F08" (gc 8 8.0 6.7 6.7) (gc 5 3.9 7.4 7.4) (gc 3 5.7 16.3 16.3) None;
    row "F09" (gc 8 8.0 6.7 6.7) (gc 5 7.4 11.0 11.0) (gc 3 11.0 27.0 27.0) None;
    row "F10" (gc 6 12.0 11.0 11.0) (gc 4 4.3 9.7 9.7) (gc 4 4.3 9.7 9.7)
      (Some (gc 6 21.0 12.3 12.3));
    row "F11" (gc 6 11.0 10.5 9.8) (gc 4 8.3 13.7 13.7) (gc 4 8.3 13.7 13.7)
      (Some (gc 6 16.0 10.7 9.8));
    row "F12" (gc 6 11.0 10.5 9.8) (gc 4 7.0 15.0 13.2) (gc 4 7.0 15.0 13.2)
      (Some (gc 6 17.0 10.3 9.9));
    row "F13" (gc 6 12.0 11.0 11.0) (gc 4 12.3 20.3 20.3) (gc 4 12.3 20.3 20.3)
      (Some (gc 6 15.0 9.7 9.7));
    row "F14" (gc 8 13.3 11.2 9.4) (gc 5 4.8 10.1 8.9) (gc 4 5.7 16.3 13.7) None;
    row "F15" (gc 10 14.7 11.3 10.6) (gc 6 5.2 12.3 10.1) (gc 4 7.0 28.3 19.0) None;
    row "F16" (gc 12 16.0 20.0 12.0) (gc 7 5.7 16.3 11.0) (gc 4 8.3 40.3 24.3) None;
    row "F17" (gc 8 12.3 10.5 8.4) (gc 5 9.2 13.7 11.3) (gc 4 11.0 24.3 20.8) None;
    row "F18" (gc 10 13.7 13.5 9.8) (gc 6 10.1 17.2 12.7) (gc 4 13.7 45.7 28.9) None;
    row "F19" (gc 10 13.3 12.3 10.1) (gc 6 10.1 18.1 13.5) (gc 4 13.7 48.3 31.6) None;
    row "F20" (gc 12 14.7 18.0 10.7) (gc 7 11.0 25.2 14.6) (gc 4 16.3 69.7 37.7) None;
    row "F21" (gc 8 12.0 11.0 8.3) (gc 5 9.2 14.6 12.2) (gc 4 11.0 27.0 23.4) None;
    row "F22" (gc 8 12.0 11.0 8.3) (gc 5 7.4 15.4 10.7) (gc 4 8.3 16.3 16.3) None;
    row "F23" (gc 8 12.3 10.5 8.4) (gc 5 7.9 13.7 10.4) (gc 4 9.7 25.7 19.0) None;
    row "F24" (gc 10 13.3 12.3 9.5) (gc 6 7.0 15.4 12.4) (gc 4 11.0 37.7 24.3) None;
    row "F25" (gc 10 13.7 13.5 9.8) (gc 6 8.8 26.6 14.1) (gc 4 12.3 49.7 29.7) None;
    row "F26" (gc 12 14.7 18.0 10.7) (gc 7 9.2 23.4 14.6) (gc 4 7.0 31.0 17.7) None;
    row "F27" (gc 8 13.3 11.2 9.4) (gc 5 13.7 20.3 16.8) (gc 4 16.3 36.3 28.3) None;
    row "F28" (gc 10 14.7 14.0 10.6) (gc 6 15.0 20.3 10.7) (gc 4 20.3 68.3 40.3) None;
    row "F29" (gc 12 16.0 20.0 12.0) (gc 7 16.3 37.7 21.7) (gc 4 24.3 104.3 56.3) None;
    row "F30" (gc 10 14.7 11.3 11.0) (gc 6 5.2 14.1 12.5) (gc 4 7.0 17.7 16.6) None;
    row "F31" (gc 12 16.0 14.7 10.4) (gc 7 5.7 12.8 9.3) (gc 4 8.3 29.7 21.1) None;
    row "F32" (gc 10 13.7 8.8 8.2) (gc 6 10.1 13.7 10.5) (gc 4 13.7 24.3 23.2) None;
    row "F33" (gc 10 13.3 11.0 8.0) (gc 6 10.1 14.6 11.4) (gc 4 13.7 27.0 25.8) None;
    row "F34" (gc 14 12.7 14.0 9.2) (gc 7 11.0 18.1 12.4) (gc 4 16.3 48.0 31.3) None;
    row "F35" (gc 12 14.7 14.0 9.2) (gc 7 11.0 18.1 12.4) (gc 4 16.3 48.3 31.3) None;
    row "F36" (gc 10 13.3 11.0 8.0) (gc 6 8.3 15.4 10.7) (gc 4 11.0 27.0 20.6) None;
    row "F37" (gc 10 13.7 10.8 8.5) (gc 6 10.1 13.7 10.5) (gc 4 13.7 24.3 13.2) None;
    row "F38" (gc 12 14.7 14.0 9.2) (gc 7 9.2 19.9 12.8) (gc 4 13.7 51.0 29.7) None;
    row "F39" (gc 12 14.7 12.7 9.2) (gc 7 9.2 16.3 12.8) (gc 4 13.7 40.3 29.7) None;
    row "F40" (gc 10 14.7 11.3 9.0) (gc 6 15.0 20.3 15.6) (gc 4 20.3 36.3 33.1) None;
    row "F41" (gc 12 16.0 14.7 10.4) (gc 7 16.3 27.0 18.5) (gc 4 24.3 72.3 46.7) None;
    row "F42" (gc 12 16.0 9.3 9.3) (gc 7 5.7 9.2 9.2) (gc 4 8.3 19.0 19.0) None;
    row "F43" (gc 12 14.7 8.7 8.2) (gc 7 9.2 12.8 11.6) (gc 4 13.7 29.7 26.1) None;
    row "F44" (gc 12 16.0 9.3 9.3) (gc 7 16.3 16.3 16.3) (gc 4 24.3 40.3 40.3) None;
    row "F45" (gc 12 14.7 8.7 9.2) (gc 7 11.0 11.0 11.0) (gc 4 16.3 32.5 24.1) None;
  ]

let table2_find gate = List.find (fun r -> r.gate = gate) table2

let tau1_ps = 0.59
let tau2_ps = 3.00

type mapping_result = {
  gates : int;
  area : float;
  levels : int;
  norm_delay : float;
  abs_delay_ps : float;
}

type table3_row = {
  bench : string;
  inputs : int;
  outputs : int;
  description : string;
  static : mapping_result;
  pseudo : mapping_result;
  cmos_map : mapping_result;
}

let mr gates area levels norm_delay abs_delay_ps =
  { gates; area; levels; norm_delay; abs_delay_ps }

(* Table 3 of the paper. *)
let table3 =
  let row bench inputs outputs description static pseudo cmos_map =
    { bench; inputs; outputs; description; static; pseudo; cmos_map }
  in
  [
    row "C2670" 233 140 "ALU and control"
      (mr 416 3292.5 12 105.2 62.1) (mr 467 1883.9 11 125.3 73.9)
      (mr 674 5687.0 16 120.0 360.0);
    row "C1908" 33 25 "Error correcting"
      (mr 201 1562.2 12 106.5 62.8) (mr 207 893.6 13 120.2 70.9)
      (mr 502 4641.0 22 175.0 525.0);
    row "C3540" 50 22 "ALU and control"
      (mr 642 6228.7 19 180.7 106.7) (mr 664 3475.4 19 197.6 116.6)
      (mr 956 8823.0 29 218.2 654.0);
    row "dalu" 75 16 "Dedicated ALU"
      (mr 679 6662.3 16 163.6 96.5) (mr 713 3956.8 17 193.5 114.2)
      (mr 1100 9181.0 28 205.9 617.7);
    row "C7552" 207 108 "ALU and control"
      (mr 904 6747.6 17 149.1 88.0) (mr 987 4235.7 17 174.4 102.9)
      (mr 1860 13933.0 24 173.6 520.8);
    row "C6288" 32 32 "Multiplier"
      (mr 1389 11672.9 48 397.8 234.7) (mr 1322 6558.0 48 481.6 284.1)
      (mr 2767 23192.0 89 639.8 1919.4);
    row "C5315" 178 123 "ALU and selector"
      (mr 894 7600.6 16 145.6 85.9) (mr 986 4553.2 17 172.2 101.6)
      (mr 1465 12048.0 27 200.2 600.6);
    row "des" 256 245 "Data encryption"
      (mr 2583 25781.1 10 88.1 52.0) (mr 2500 13920.0 9 90.8 53.6)
      (mr 3560 35781.0 15 115.3 345.9);
    row "i10" 257 224 "Logic"
      (mr 1279 11264.2 19 200.0 118.0) (mr 1287 6296.2 21 222.3 131.2)
      (mr 1965 16394.0 29 218.8 656.4);
    row "t481" 16 1 "Logic"
      (mr 670 6379.0 12 113.7 67.1) (mr 598 3516.0 11 114.0 67.3)
      (mr 804 8259.0 13 102.2 306.6);
    row "i18" 133 81 "Logic"
      (mr 674 6642.0 8 83.6 49.3) (mr 714 3698.6 9 89.8 53.0)
      (mr 836 7968.0 11 82.1 246.3);
    row "C1355" 41 32 "Error correcting"
      (mr 207 1260.2 9 63.9 37.7) (mr 215 776.6 9 73.6 43.4)
      (mr 579 5376.0 16 125.0 375.0);
    row "add-16" 33 17 "16-bit adder"
      (mr 128 834.4 19 179.2 105.7) (mr 132 540.0 20 220.0 129.8)
      (mr 217 1548.0 33 244.6 733.8);
    row "add-32" 65 33 "32-bit adder"
      (mr 256 1656.7 35 340.5 200.9) (mr 260 1091.4 36 421.6 248.7)
      (mr 441 3084.0 65 479.1 1437.3);
    row "add-64" 129 65 "64-bit adder"
      (mr 512 3321.0 67 663.1 391.2) (mr 516 2194.1 68 824.8 486.6)
      (mr 889 6156.0 129 948.3 2844.9);
  ]

let table3_find bench = List.find (fun r -> r.bench = bench) table3

let fig6_speedups =
  List.map
    (fun r ->
      ( r.bench,
        r.cmos_map.abs_delay_ps /. r.static.abs_delay_ps,
        r.cmos_map.abs_delay_ps /. r.pseudo.abs_delay_ps ))
    table3

(* Table 3's aggregate rows, keyed like [Experiments.summarize]. *)
let aggregates =
  [
    ("gate_reduction_static", 0.386);
    ("area_reduction_static", 0.377);
    ("area_reduction_pseudo", 0.645);
    ("level_reduction_static", 0.415);
    ("level_reduction_pseudo", 0.404);
    ("speedup_static", 6.9);
    ("speedup_pseudo", 5.8);
  ]
