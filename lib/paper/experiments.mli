(** Renderers of the paper's evaluation artifacts.

    Table 3 and Figure 6 come from one {!Flow.run_matrix} sweep of
    [resyn2rs; map; verify] ({!run_table3}); each [render_*] produces a
    markdown report comparing computed values against the published
    numbers in {!Paper_data}. *)

(** {1 Table 1} *)

val render_table1 : unit -> string

(** {1 Table 2} *)

val render_table2 : unit -> string

(** {1 Ablation libraries} *)

val published_library : Cell_netlist.family -> Cell_lib.t
(** A match library built from the paper's printed Table 2 (area and
    worst-case FO4 delay per cell) instead of our characterization; free
    output phases for the CNTFET families.  Raises [Invalid_argument] for
    [Pass_static], which the paper does not print. *)

val without_free_polarity : Cell_lib.t -> Cell_lib.t
(** The library with inverters charged like CMOS: no free output phases,
    with F00 as the explicit inverter cell (the output-polarity
    ablation). *)

(** {1 Table 3 / Figure 6} *)

type t3_row = {
  bench : string;
  static_r : Mapped.stats;
  pseudo_r : Mapped.stats;
  cmos_r : Mapped.stats;
}

val run_table3 : ?config:Flow.config -> ?benches:string list -> unit -> t3_row list
(** The Table 3 sweep: every benchmark (default the whole suite) through
    [resyn2rs; map; verify] onto the static, pseudo and CMOS libraries, as
    one {!Flow.run_matrix} over the recommended number of domains (output
    is identical at any number).  [config.seed] seeds [verify].  Raises
    [Failure] naming every bench/family whose mapping disagrees with its
    source AIG. *)

val render_table3 : t3_row list -> string

val render_fig6 : t3_row list -> string
(** Per benchmark, the CMOS-to-CNTFET absolute-delay ratio, unit-load and
    load-aware (STA), against the paper's bars. *)

val summarize : t3_row list -> (string * float) list
(** Aggregate improvement metrics matching Table 3's last rows:
    gate/area/level/delay reductions and absolute speed-ups for both
    CNTFET families. *)
