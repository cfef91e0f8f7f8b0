(* The serve workload: the flowd daemon over its Unix socket, fed from this
   one process over one connection.  An open loop sends requests at a
   pinned rate (latency is timed from each request's due time) for half
   the run, then a closed loop keeps one request in flight for the other
   half.  Every reply's result must equal, byte for byte, the in-process
   [Job.result_json] of the same request. *)

let script = "b; rw; map; sta"

(* Requests per second of the open loop: well below what [nproc] workers
   sustain on small circuits, so the queue stays short and latency
   follows the work of a job more than the wait for a worker. *)
let rate = 20.0

(* Client connections.  The open loop pipelines its requests on one, and
   the daemon's queue spreads them over its workers; more clients would
   take the same few cores from the workers. *)
let clients = 1

(* The open loop's p95 latency limit; a failed or shed request misses it. *)
let p95_limit_ms = 100.0

let repeat_share = 0.25
let variant_share = 0.15

(* Small paper circuits of similar cost per job, so the latency median
   falls inside one dense cluster instead of on a gap between circuits. *)
let circuits ~smoke =
  if smoke then [ "t481"; "add-16" ] else [ "t481"; "dalu"; "C1355"; "C1908"; "C3540" ]

let families ~smoke =
  if smoke then [ Cell_netlist.Tg_static; Cell_netlist.Cmos ]
  else [ Cell_netlist.Tg_static; Cell_netlist.Tg_pseudo; Cell_netlist.Cmos ]

(* The fewest closed-loop rounds a run makes, however short. *)
let min_rounds = 3

(* ---------------- the request mix ---------------- *)

(* One pool entry per (circuit, family).  Fresh requests of an entry differ
   only in the verify seed parameter: that makes each a distinct job for
   the daemon (the seed is part of its cache key) while the script, which
   runs no seeded pass, gives every one the same result. *)
type entry = { circuit : string; family : Cell_netlist.family; blif : string }

let pool ~smoke =
  List.concat_map
    (fun c ->
      let blif = Blif.to_string ((Bench_suite.find c).Bench_suite.build ()) in
      List.map (fun family -> { circuit = c; family; blif }) (families ~smoke))
    (circuits ~smoke)
  |> Array.of_list

let submit ~id (e : entry) ~fresh ~text =
  {
    Proto.sub_id = id;
    sub_name = e.circuit;
    sub_format = Proto.Blif;
    sub_circuit = text;
    sub_script = script;
    sub_family = e.family;
    sub_params = { Proto.default_params with Proto.seed = Some (Int64.of_int fresh) };
    sub_netlist = false;
  }

(* The same AIG in other words: comment lines the parser drops. *)
let variant_text blif k =
  String.split_on_char '\n' blif
  |> List.map (fun l ->
         if String.starts_with ~prefix:".names" l then Printf.sprintf "\n# %d\n%s" k l else l)
  |> String.concat "\n"
  |> Printf.sprintf "# variant %d\n%s" k

type request = { sub : Proto.submit; entry : int }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Pool indices, a fresh seeded permutation of the pool at a time: every
   entry is drawn equally often. *)
let entry_stream rng np =
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos = Array.length !cur then begin
      cur := shuffle rng (Array.init np Fun.id);
      pos := 0
    end;
    incr pos;
    !cur.(!pos - 1)

type kind = Fresh | Repeat | Variant

(* [n] open-loop requests.  The seed draws their order and which earlier
   request a repeat or variant copies, never their make-up: the shares of
   repeats and variants are exact and fresh jobs cycle evenly over the
   pool, starting with every entry once (so QoR covers the whole pool on
   every seed).  Returns the requests and the number of fresh jobs. *)
let open_requests pool ~seed ~n =
  let rng = Random.State.make [| seed; 17 |] in
  let np = Array.length pool in
  let rest = max 0 (n - np) in
  let repeats = int_of_float (repeat_share *. float_of_int rest) in
  let variants = int_of_float (variant_share *. float_of_int rest) in
  let kinds =
    shuffle rng
      (Array.init rest (fun k ->
           if k < repeats then Repeat else if k < repeats + variants then Variant else Fresh))
  in
  let next_entry = entry_stream rng np in
  let fresh = ref 0 in
  let reqs = Array.make n { sub = submit ~id:"" pool.(0) ~fresh:0 ~text:""; entry = 0 } in
  for k = 0 to n - 1 do
    let id = Printf.sprintf "o%d" k in
    reqs.(k) <-
      (match if k < np then Fresh else kinds.(k - np) with
      | Fresh ->
          incr fresh;
          let i = next_entry () in
          { sub = submit ~id pool.(i) ~fresh:!fresh ~text:pool.(i).blif; entry = i }
      | Repeat ->
          let r = reqs.(Random.State.int rng k) in
          { r with sub = { r.sub with Proto.sub_id = id } }
      | Variant ->
          let r = reqs.(Random.State.int rng k) in
          {
            r with
            sub = { r.sub with Proto.sub_id = id; sub_circuit = variant_text pool.(r.entry).blif k };
          })
  done;
  (reqs, !fresh)

(* Closed-loop round [round]: one fresh job per pool entry, in seeded
   order.  The closed loop measures how fast the daemon does real work. *)
let closed_requests pool ~seed ~round ~first_fresh =
  let np = Array.length pool in
  let order = shuffle (Random.State.make [| seed; 29; round |]) (Array.init np Fun.id) in
  Array.mapi
    (fun k i ->
      let fresh = first_fresh + (round * np) + k + 1 in
      {
        sub = submit ~id:(Printf.sprintf "c%d-%d" round k) pool.(i) ~fresh ~text:pool.(i).blif;
        entry = i;
      })
    order

(* ---------------- the daemon and its clients ---------------- *)

let flowd_exe = "_build/default/bin/flowd.exe"

type daemon = { pid : int; sock : string; stdout_ : in_channel }

(* Starts flowd and returns once it announces its socket, with the time
   that took. *)
let start ~workers ~fams ~sock =
  if Sys.file_exists sock then Sys.remove sock;
  let r, w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat Pb.out_dir "flowd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = Pb.now () in
  let pid =
    Unix.create_process flowd_exe
      [| flowd_exe; "--socket"; sock; "--workers"; string_of_int workers; "--families";
         fams; "--queue"; "100000"; "--cache"; "100000" |]
      Unix.stdin w log
  in
  Unix.close w;
  Unix.close log;
  let stdout_ = Unix.in_channel_of_descr r in
  match input_line stdout_ with
  | l when String.starts_with ~prefix:"flowd listening" l ->
      (Pb.now () -. t0, { pid; sock; stdout_ })
  | _ | (exception End_of_file) ->
      ignore (Pb.waitpid_retry pid);
      failwith "flowd exited before it was ready (see .perfbench/flowd.log)"

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; buf = Buffer.create 65536 }

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Reads what is available and returns the complete lines. *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "flowd closed a connection"
  | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      let s = Buffer.contents c.buf in
      (match String.rindex_opt s '\n' with
      | None -> []
      | Some i ->
          Buffer.clear c.buf;
          Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
          String.split_on_char '\n' (String.sub s 0 i))

let reply_id line =
  match Json_codec.parse line with
  | Ok j -> Option.value (Json_codec.mem_str j "id") ~default:""
  | Error _ -> ""

let request_line c op =
  send c (Proto.simple_to_line op);
  let rec wait () = match read_lines c with [] -> wait () | l :: _ -> l in
  wait ()

let stop d =
  let c = connect d.sock in
  ignore (request_line c "drain");
  Unix.close c.fd;
  ignore (Pb.waitpid_retry d.pid);
  close_in d.stdout_

type exchange = {
  mutable sent : float;
  mutable answered : float;
  mutable reply : string;
}

(* Sends every request and waits for every reply.  With [due] (the open
   loop), [reqs.(k)] goes out at [due k] on connection [k mod n]; without
   (the closed loop), each connection is a client that sends the next
   request as soon as its previous reply is in. *)
let exchange conns (reqs : request array) ~due =
  let n = Array.length reqs in
  let ex = Array.init n (fun _ -> { sent = nan; answered = nan; reply = "" }) in
  let index = Hashtbl.create n in
  Array.iteri (fun k r -> Hashtbl.replace index r.sub.Proto.sub_id k) reqs;
  let nc = Array.length conns in
  let busy = Array.make nc false in
  let next = ref 0 and received = ref 0 in
  let deadline = ref (Pb.now () +. 120.0) in
  let send_next ci =
    let k = !next in
    ex.(k).sent <- Pb.now ();
    busy.(ci) <- true;
    send conns.(ci) (Proto.submit_to_line reqs.(k).sub);
    incr next
  in
  while !received < n do
    let now = Pb.now () in
    if now > !deadline then failwith "flowd stopped answering";
    (match due with
    | Some d ->
        while !next < n && d !next <= now do
          send_next (!next mod nc)
        done
    | None -> Array.iteri (fun ci b -> if (not b) && !next < n then send_next ci) busy);
    let timeout =
      match due with
      | Some d when !next < n -> Float.max 0.0 (d !next -. Pb.now ())
      | _ -> 1.0
    in
    let ready, _, _ =
      try Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let ci = ref 0 in
        Array.iteri (fun i c -> if c.fd = fd then ci := i) conns;
        List.iter
          (fun line ->
            match Hashtbl.find_opt index (reply_id line) with
            | Some k when ex.(k).reply = "" ->
                ex.(k).answered <- Pb.now ();
                ex.(k).reply <- line;
                busy.(!ci) <- false;
                incr received;
                deadline := Pb.now () +. 120.0
            | _ -> ())
          (read_lines conns.(!ci)))
      ready
  done;
  ex

(* The raw [result] object of an ok reply: [Proto.ok_reply] prints it last,
   verbatim, so byte comparison needs no JSON round trip. *)
let raw_result line =
  let key = "\"result\":" in
  let kl = String.length key and n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then Some (String.sub line (i + kl) (n - i - kl - 1))
    else find (i + 1)
  in
  match Json_codec.parse line with
  | Ok j when Json_codec.mem_str j "status" = Some "ok" -> find 0
  | _ -> None

let status_int st path =
  let rec go j = function
    | [] -> Json_codec.int_ j
    | k :: rest -> Option.bind (Json_codec.member k j) (fun j -> go j rest)
  in
  Option.value (go st ("result" :: path)) ~default:0

(* ---------------- the workload ---------------- *)

(* The in-process result of a request, as a worker computes it. *)
let result_of (sub : Proto.submit) =
  let aig = Job.parse_circuit sub in
  let steps = Job.parse_script sub in
  let config = Job.flow_config ~base:Server.default_config.Server.flow sub in
  Job.result_json ~config ~steps ~aig sub

(* The same request through the same calls, one span each. *)
let traced_result tr (sub : Proto.submit) =
  let circuit = sub.Proto.sub_name in
  let aig = Pb_trace.with_span tr ~circuit "serve.parse" (fun () -> Job.parse_circuit sub) in
  let config, steps =
    Pb_trace.with_span tr ~circuit "serve.key" (fun () ->
        let steps = Job.parse_script sub in
        let config = Job.flow_config ~base:Server.default_config.Server.flow sub in
        ignore (Job.cache_key ~config ~steps ~aig sub);
        (config, steps))
  in
  Pb_trace.with_span tr ~circuit "serve.result" (fun () -> Job.result_json ~config ~steps ~aig sub)

let num_field json k =
  match Json_codec.parse json with
  | Ok j -> Option.value (Option.bind (Json_codec.member k j) Json_codec.num) ~default:0.0
  | Error _ -> 0.0

let run ~key ~repeats ~smoke ~meta ~seed ~seconds ~trace : Pb.outcome =
  let workers = Lazy.force Pb.nproc in
  Pb.warn_oversubscribed ~what:"flowd workers" workers;
  if not (Sys.file_exists flowd_exe) then failwith (flowd_exe ^ " is not built");
  Pb.mkdir_p Pb.out_dir;
  let fams = String.concat "," (List.map Cli_common.family_arg_name (families ~smoke)) in
  let sock = Filename.concat Pb.out_dir (Printf.sprintf "flowd-%d.sock" (Unix.getpid ())) in
  let pool = pool ~smoke in
  let live = ref None in
  let run_daemon () =
    (* set-up: daemon start to ready, [repeats] times; the last one serves *)
    let rec starts k acc =
      let s, d = start ~workers ~fams ~sock in
      live := Some d;
      if k <= 1 then (s :: acc, d)
      else begin
        stop d;
        live := None;
        starts (k - 1) (s :: acc)
      end
    in
    let setups, d = starts repeats [] in
    let conns = Array.init clients (fun _ -> connect sock) in
    let half = seconds /. 2.0 in
    let open_reqs, fresh = open_requests pool ~seed ~n:(max 1 (int_of_float (rate *. half))) in
    let t0 = Pb.now () +. 0.05 in
    let due k = t0 +. (float_of_int k /. rate) in
    let open_ex = exchange conns open_reqs ~due:(Some due) in
    (* rounds until the other half of [seconds] has gone, timed one by one *)
    let c0 = Pb.now () in
    let rec rounds round acc =
      if round >= min_rounds && Pb.now () -. c0 >= half then List.rev acc
      else
        let reqs = closed_requests pool ~seed ~round ~first_fresh:fresh in
        let r0 = Pb.now () in
        let ex = exchange conns reqs ~due:None in
        rounds (round + 1) ((reqs, ex, Pb.now () -. r0) :: acc)
    in
    let closed = rounds 0 [] in
    let closed_reqs = Array.concat (List.map (fun (r, _, _) -> r) closed) in
    let closed_ex = Array.concat (List.map (fun (_, e, _) -> e) closed) in
    let round_walls = List.map (fun (_, _, w) -> w) closed in
    let status =
      match Json_codec.parse (request_line conns.(0) "status") with
      | Ok j -> j
      | Error m -> failwith ("bad status reply: " ^ m)
    in
    let rss = Pb.peak_rss_mb d.pid in
    Array.iter (fun c -> Unix.close c.fd) conns;
    stop d;
    live := None;
    (setups, open_reqs, open_ex, due, closed_reqs, closed_ex, round_walls, status, rss)
  in
  let setups, open_reqs, open_ex, due, closed_reqs, closed_ex, round_walls, status, rss =
    Fun.protect
      ~finally:(fun () ->
        Option.iter
          (fun d ->
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Pb.waitpid_retry d.pid))
          !live)
      run_daemon
  in
  (* the untraced in-process pass: one reference result per pool entry *)
  let l0 = Pb.now () in
  List.iter (fun f -> ignore (Cell_lib.cached f)) (families ~smoke);
  let lib_ms = Pb.ms_since l0 in
  let canonical i = (submit ~id:"" pool.(i) ~fresh:0 ~text:pool.(i).blif) in
  let u0 = Pb.now () in
  let refs = Array.init (Array.length pool) (fun i -> result_of (canonical i)) in
  let untraced_s = Pb.now () -. u0 in
  (* output checks: every reply ok, not shed, and byte-equal to the
     reference of its request *)
  let check (reqs : request array) ex =
    Array.mapi
      (fun k (r : request) ->
        match raw_result ex.(k).reply with
        | Some res when res = refs.(r.entry) -> None
        | Some _ -> Some (r.sub.Proto.sub_id ^ ": result differs from the in-process result")
        | None -> Some (r.sub.Proto.sub_id ^ ": not ok: " ^ ex.(k).reply))
      reqs
  in
  let open_bad = check open_reqs open_ex and closed_bad = check closed_reqs closed_ex in
  let failures = List.filter_map Fun.id (Array.to_list open_bad @ Array.to_list closed_bad) in
  let attempted = Array.length open_reqs + Array.length closed_reqs in
  let latencies =
    Array.to_list
      (Array.mapi
         (fun k e -> if open_bad.(k) = None then 1000.0 *. (e.answered -. due k) else infinity)
         open_ex)
  in
  let area = Pb.geomean (Array.to_list (Array.map (fun r -> num_field r "area") refs)) in
  let delay = Pb.geomean (Array.to_list (Array.map (fun r -> num_field r "sta_ps") refs)) in
  let fields =
    [
      ("digest", Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list refs))));
      ("qor_area", Printf.sprintf "%.17g" area);
      ("qor_delay_ps", Printf.sprintf "%.17g" delay);
    ]
  in
  let p95 = Pb.quantile 0.95 latencies in
  let notes =
    [
      Printf.sprintf "open loop: %d requests at %.0f/s over %d connection(s); p95 %.1f ms %s the %.0f ms limit"
        (Array.length open_reqs) rate clients p95
        (if p95 <= p95_limit_ms then "within" else "BEYOND")
        p95_limit_ms;
      Printf.sprintf
        "closed loop: %d rounds of %d fresh jobs from %d client(s), median round %.3f s = %.1f serve_jobs_per_s"
        (List.length round_walls) (Array.length pool) clients (Pb.median round_walls)
        (float_of_int (Array.length pool) /. Pb.median round_walls);
    ]
  in
  let problems_of extra =
    failures @ Pb.repeat_check ~key fields @ extra
  in
  if not trace then
    {
      Pb.attempted;
      failed = List.length failures;
      problems = problems_of [];
      metrics =
        [
          ("setup_s", Pb.median setups);
          ("wall_s", Pb.median round_walls);
          ("peak_rss_mb", rss);
          ("qor_area", area);
          ("qor_delay_ps", delay);
          ("p50_ms", Pb.quantile 0.5 latencies);
          ("p95_ms", p95);
          ( "decided_ratio",
            Pb.ratio (float_of_int (attempted - List.length failures)) (float_of_int attempted) );
        ];
      notes;
    }
  else begin
    let tr = Pb_trace.create () in
    let t1 = Pb.now () in
    let traced = Array.init (Array.length pool) (fun i -> traced_result tr (canonical i)) in
    let traced_s = Pb.now () -. t1 in
    let drift =
      if traced = refs then [] else [ "digest: traced vs untraced in-process results differ" ]
    in
    let span_median name =
      Pb.median
        (List.filter_map
           (fun (s : Pb_trace.span) -> if s.Pb_trace.name = name then Some (Pb_trace.dur_ms s) else None)
           (Pb_trace.spans tr))
    in
    let result_ms = span_median "serve.result" in
    let closed_lat =
      Array.to_list (Array.map (fun e -> 1000.0 *. (e.answered -. e.sent)) closed_ex)
    in
    let lateness =
      Array.to_list (Array.mapi (fun k e -> 1000.0 *. (e.sent -. due k)) open_ex)
    in
    let jobs k = status_int status [ "jobs"; k ] and lib k = status_int status [ "lib_cache"; k ] in
    let file = Pb.trace_file ~key ~seed in
    Pb.write_file file (Pb_trace.to_chrome_json tr ~meta);
    {
      Pb.attempted;
      failed = List.length failures;
      problems = problems_of drift;
      metrics =
        [
          ("cell_lib.build_ms", lib_ms);
          ("cell_lib.entries", float_of_int (lib "entries"));
          ("cell_lib.hits", float_of_int (lib "hits"));
          ("cell_lib.misses", float_of_int (lib "misses"));
          ("serve.parse_ms", span_median "serve.parse");
          ("serve.key_ms", span_median "serve.key");
          ("serve.result_ms", result_ms);
          ("serve.daemon_ms", Pb.median closed_lat -. result_ms);
          ( "serve.cache_hit_ratio",
            Pb.ratio (float_of_int (jobs "cache_hits")) (float_of_int (jobs "received")) );
          ("serve.coalesced", float_of_int (jobs "coalesced"));
          ("serve.retries", float_of_int (jobs "retries"));
          ("serve.shed", float_of_int (jobs "shed"));
          ("gen.late_p95_ms", Pb.quantile 0.95 lateness);
          ("gen.sent", float_of_int (Array.length open_reqs));
          ("trace.overhead_pct", 100.0 *. Pb.ratio (traced_s -. untraced_s) untraced_s);
        ];
      notes =
        notes
        @ [ Printf.sprintf "in-process results: untraced %.3f s, traced %.3f s; spans in %s"
              untraced_s traced_s file ];
    }
  end
