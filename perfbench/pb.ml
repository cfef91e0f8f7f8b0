(* Shared machinery of the benchmark driver: statistics, fork-isolated
   measurement, provenance, the benchmark's own output checks and the
   cross-run determinism record. *)

let now = Unix.gettimeofday
let ms_since t0 = 1000.0 *. (now () -. t0)

(* ---------------- statistics ---------------- *)

(* Linear interpolation between closest ranks.  Infinite samples (failed
   or shed requests) sort last and make every quantile they reach
   infinite. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let h = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float (Float.floor h) in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = h -. float_of_int lo in
      if frac = 0.0 || a.(hi) = a.(lo) then a.(lo)
      else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------------- host ---------------- *)

let read_process cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l when l <> "" -> Some l
      | _ -> None)

(* Online CPUs as the kernel schedules them ([nproc]), which the OCaml
   runtime's recommended domain count need not equal. *)
let nproc =
  lazy
    (match Option.bind (read_process "nproc 2>/dev/null") int_of_string_opt with
    | Some n when n >= 1 -> n
    | _ -> Domain.recommended_domain_count ())

let warn_oversubscribed ~what n =
  let cpus = Lazy.force nproc in
  if n > cpus then
    Printf.eprintf
      "\n*** WARNING: %s = %d exceeds nproc = %d: the extra domains, workers \
       or connections time-slice the same cores, so these numbers measure \
       oversubscription overhead, not parallel speed. ***\n\n%!"
      what n cpus

(* VmHWM of a process in MB; 0 where procfs is unavailable. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) go

(* Words allocated by the calling domain so far. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Runs [f] in a forked child and returns its result, so each measurement
   has its own peak RSS and leaves the parent's heap untouched.  The parent
   must not have spawned domains (OCaml forbids fork after that), which is
   why every multi-domain run happens in a child. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let res =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (res : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res : ('a, string) result =
        try Marshal.from_channel ic
        with End_of_file | Failure _ ->
          Error "measurement child exited without a result"
      in
      close_in ic;
      ignore (waitpid_retry pid);
      match res with Ok v -> v | Error m -> failwith ("in child: " ^ m))

(* ---------------- provenance ---------------- *)

let rec source_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names |> List.sort compare
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then source_files p
             else if
               Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli"
               || n = "dune"
             then [ p ]
             else [])

(* Content hash of the measured sources: identifies the code even where
   the tree is not a git checkout. *)
let source_digest () =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_char b '\000';
      Buffer.add_string b (In_channel.with_open_bin p In_channel.input_all))
    (("dune-project" :: source_files "lib") @ source_files "bin"
    @ source_files "perfbench");
  Digest.to_hex (Digest.string (Buffer.contents b))

let provenance ~workload ~profile ~seed ~trace =
  let open Json_codec in
  Obj
    [
      ("host", Str (Unix.gethostname ()));
      ("nproc", Num (float_of_int (Lazy.force nproc)));
      ("ocaml", Str Sys.ocaml_version);
      ( "commit",
        Str
          (if Sys.file_exists ".git" then
             Option.value (read_process "git rev-parse HEAD 2>/dev/null")
               ~default:"unknown"
           else "unknown (not a git checkout)") );
      ("source_digest", Str (source_digest ()));
      ("workload", Str workload);
      ("profile", Str profile);
      ("seed", Num (float_of_int seed));
      ("trace", Bool trace);
    ]

(* ---------------- run artefacts ---------------- *)

let out_dir = ".perfbench"

let trace_file ~key ~seed =
  Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" key seed)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc s);
  Sys.rename tmp path

(* Cross-run determinism: the first run of a workload in a tree records
   its output digest and count metrics; every later run (traced or not,
   any seed) must reproduce the fields both records hold.  Returns the
   mismatches. *)
let repeat_check ~key fields =
  let path = Filename.concat (Filename.concat out_dir "state") (key ^ ".tsv") in
  let render fs = String.concat "" (List.map (fun (k, v) -> k ^ "\t" ^ v ^ "\n") fs) in
  if not (Sys.file_exists path) then (write_file path (render fields); [])
  else
    let old =
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun l ->
             match String.index_opt l '\t' with
             | Some i ->
                 Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
             | None -> None)
    in
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k old with
        | Some v0 when v0 <> v ->
            Some (Printf.sprintf "%s: %s differs from an earlier run's %s" k v v0)
        | _ -> None)
      fields

(* ---------------- output checks ---------------- *)

(* Bit-parallel simulation of an AIG, written here rather than borrowed
   from the flow so that it checks the flow independently. *)
let simulate aig (inputs : int64 array) =
  let v = Array.make (Aig.num_nodes aig) 0L in
  Array.iteri (fun i w -> v.(Aig.node_of (Aig.input_lit aig i)) <- w) inputs;
  let lit l =
    let x = v.(Aig.node_of l) in
    if Aig.is_compl l then Int64.lognot x else x
  in
  Aig.iter_ands aig (fun n ->
      v.(n) <- Int64.logand (lit (Aig.fanin0 aig n)) (lit (Aig.fanin1 aig n)));
  Array.map (fun (_, l) -> lit l) (Aig.outputs aig)

(* [rounds] x 64 seeded random patterns; outputs are compared
   positionally. *)
let sim_agree ~seed ~rounds a b =
  Aig.num_inputs a = Aig.num_inputs b
  && Aig.num_outputs a = Aig.num_outputs b
  &&
  let rng = Random.State.make [| seed |] in
  let rec go r =
    r = 0
    ||
    let pat = Array.init (Aig.num_inputs a) (fun _ -> Random.State.bits64 rng) in
    simulate a pat = simulate b pat && go (r - 1)
  in
  go rounds

(* Whether the input assignment [bits] tells [a] and [b] apart. *)
let distinguishes a b bits =
  let pat = Array.map (fun x -> if x then -1L else 0L) bits in
  Array.length bits = Aig.num_inputs a
  && Array.exists2 (fun x y -> Int64.logand (Int64.logxor x y) 1L <> 0L)
       (simulate a pat) (simulate b pat)

(* ---------------- results ---------------- *)

(* A measured metric by name; the driver's catalog supplies its unit. *)
type metric = string * float

type outcome = {
  attempted : int;
  failed : int;            (** operations whose output check failed *)
  problems : string list;  (** every failed output or determinism check *)
  metrics : metric list;
  notes : string list;     (** human-readable lines printed before the result *)
}
