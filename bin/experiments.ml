(* Regenerates the paper's artifacts.

     experiments table1|table2|table3|fig6|all [fast] [--seed N]

   "fast" restricts Table 3 / Figure 6 to the small benchmarks; "--seed N"
   sets the seed of the random-simulation check every Table 3 mapping goes
   through (default 2026).  A mapping that fails it is named on stderr and
   the exit status is 1.  The "all" mode prints everything in one report
   (what EXPERIMENTS.md archives), from a single Table 3 sweep. *)

let fast_benches =
  [ "C1908"; "C3540"; "dalu"; "t481"; "C1355"; "add-16"; "add-32"; "add-64" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_seed acc = function
    | [] -> (List.rev acc, None)
    | "--seed" :: v :: rest -> (List.rev acc @ rest, Some v)
    | a :: rest -> split_seed (a :: acc) rest
  in
  let positional, seed = split_seed [] args in
  let config =
    match seed with
    | None -> Flow.default_config
    | Some v -> (
        match Int64.of_string_opt v with
        | Some s -> { Flow.default_config with Flow.seed = s }
        | None ->
            Printf.eprintf "bad --seed %s\n" v;
            exit 1)
  in
  let what = match positional with w :: _ -> w | [] -> "all" in
  let fast = List.exists (( = ) "fast") positional in
  let benches = if fast then Some fast_benches else None in
  let t0 = Unix.gettimeofday () in
  let table3 () =
    try Experiments.run_table3 ~config ?benches ()
    with Failure msg ->
      Printf.eprintf "experiments: %s\n" msg;
      exit 1
  in
  (match what with
  | "table1" -> print_string (Experiments.render_table1 ())
  | "table2" -> print_string (Experiments.render_table2 ())
  | "table3" -> print_string (Experiments.render_table3 (table3 ()))
  | "fig6" -> print_string (Experiments.render_fig6 (table3 ()))
  | "all" ->
      print_string (Experiments.render_table1 ());
      print_newline ();
      print_string (Experiments.render_table2 ());
      print_newline ();
      let rows = table3 () in
      print_string (Experiments.render_table3 rows);
      print_newline ();
      print_string (Experiments.render_fig6 rows)
  | other ->
      Printf.eprintf "unknown experiment %s (table1|table2|table3|fig6|all)\n"
        other;
      exit 1);
  Printf.printf "\n_generated in %.1f s_\n" (Unix.gettimeofday () -. t0)
