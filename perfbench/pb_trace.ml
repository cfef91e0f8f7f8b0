(* In-memory span recorder of the traced run.  A span is one call into a
   layer's public function, recorded from the benchmark around the call:
   name ("layer.function"), start, end, parent span and circuit id, plus
   the counters read at the same boundary.  Spans are written out once, at
   the end, as Chrome trace-event JSON (load in chrome://tracing or
   Perfetto). *)

type span = {
  id : int;
  name : string;
  circuit : string;
  parent : int;  (** 0 for a root span *)
  t0 : float;
  mutable t1 : float;
  mutable args : (string * float) list;
}

type t = {
  origin : float;
  mutable next_id : int;
  mutable open_ : span list;  (** innermost first *)
  mutable closed : span list;
}

let create () = { origin = Pb.now (); next_id = 1; open_ = []; closed = [] }

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let with_span tr ?(circuit = "") name f =
  let parent = match tr.open_ with s :: _ -> s.id | [] -> 0 in
  let s =
    { id = tr.next_id; name; circuit; parent; t0 = Pb.now (); t1 = 0.0; args = [] }
  in
  tr.next_id <- tr.next_id + 1;
  tr.open_ <- s :: tr.open_;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Pb.now ();
      tr.open_ <- List.tl tr.open_;
      tr.closed <- s :: tr.closed)
    f

(* Attaches a counter to the innermost open span. *)
let arg tr key v =
  match tr.open_ with s :: _ -> s.args <- (key, v) :: s.args | [] -> ()

(* [with_span] that also records the calling domain's allocation (in
   words) as the span's [alloc_w] counter. *)
let with_alloc_span tr ?circuit name f =
  with_span tr ?circuit name (fun () ->
      let w0 = Pb.alloc_words () in
      let r = f () in
      arg tr "alloc_w" (Pb.alloc_words () -. w0);
      r)

let spans tr = List.rev tr.closed
let dur_ms s = 1000.0 *. (s.t1 -. s.t0)

(* Self time: a span's duration minus the part its direct children
   cover (children never overlap: spans nest on one domain). *)
let self_ms tr =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur_ms s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    tr.closed;
  List.map
    (fun s -> (s, dur_ms s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    (spans tr)

(* Summed self time and summed counter per span name. *)
let total_self_ms tr name =
  Pb.sum (List.filter_map (fun (s, ms) -> if s.name = name then Some ms else None) (self_ms tr))

let total_arg tr name key =
  Pb.sum
    (List.filter_map
       (fun s -> if s.name = name then List.assoc_opt key s.args else None)
       (spans tr))

(* Self time per layer, in first-seen order. *)
let layer_self_ms tr =
  List.fold_left
    (fun acc (s, ms) ->
      let l = layer_of s.name in
      match List.assoc_opt l acc with
      | Some v -> (l, v +. ms) :: List.remove_assoc l acc
      | None -> (l, ms) :: acc)
    [] (self_ms tr)
  |> List.rev

let to_chrome_json tr ~meta =
  let open Json_codec in
  let us t = Num (Float.round ((t -. tr.origin) *. 1e6)) in
  let event s =
    Obj
      [
        ("name", Str s.name);
        ("cat", Str (layer_of s.name));
        ("ph", Str "X");
        ("ts", us s.t0);
        ("dur", Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", Num 1.0);
        ("tid", Num 1.0);
        ( "args",
          Obj
            (("circuit", Str s.circuit)
            :: ("span", Num (float_of_int s.id))
            :: ("parent", Num (float_of_int s.parent))
            :: List.rev_map (fun (k, v) -> (k, Num v)) s.args) );
      ]
  in
  to_string
    (Obj
       [
         ("traceEvents", Arr (List.map event (spans tr)));
         ("displayTimeUnit", Str "ms");
         ("otherData", meta);
       ])
