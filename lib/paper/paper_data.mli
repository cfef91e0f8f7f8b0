(** The numbers published in the paper (Tables 2 and 3, Figure 6), used by
    the experiment drivers to report computed-vs-published deviations.

    Sources: Ben Jamaa, Mohanram, De Micheli, "Novel Library of Logic Gates
    with Ambipolar CNTFETs: Opportunities for Multi-Level Logic Synthesis",
    DATE 2009. *)

type gate_char = {
  t : int;        (** transistor count *)
  a : float;      (** normalized area *)
  w : float;      (** worst-case FO4 / tau *)
  avg : float;    (** average FO4 / tau *)
}

type table2_row = {
  gate : string;  (** "F00".."F45" *)
  tg_static : gate_char;
  tg_pseudo : gate_char;
  pass_pseudo : gate_char;
  cmos : gate_char option;  (** only the 7 CMOS-expressible entries *)
}

val table2 : table2_row list
val table2_find : string -> table2_row

val tau1_ps : float
(** CNTFET intrinsic delay, 0.59 ps. *)

val tau2_ps : float
(** CMOS intrinsic delay, 3.00 ps. *)

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

val table3 : table3_row list
val table3_find : string -> table3_row

val fig6_speedups : (string * float * float) list
(** Per benchmark: CMOS-to-CNTFET absolute-delay ratio for the static and
    pseudo transmission-gate families (the two bar series of Figure 6),
    derived from Table 3's absolute delays. *)

val aggregates : (string * float) list
(** The aggregate improvements vs CMOS printed under Table 3 (and the
    average bars of Figure 6), keyed like {!Experiments.summarize}:
    gate/area/level reductions as fractions and the average absolute
    speed-ups of the static (6.9x) and pseudo (5.8x) families. *)
