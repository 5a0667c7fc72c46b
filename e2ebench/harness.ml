(* The measuring loop, the per-layer recorder and the result line. *)

let now = Unix.gettimeofday

(* {1 Order statistics} *)

(* Linear interpolation between closest ranks (the "inclusive"
   definition): [quantile xs 0.5] is the median. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  match Array.length a with
  | 0 -> nan
  | n ->
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* [setup ~reps f] runs the set-up [reps] times and returns the median
   wall time in seconds with the last run's state. *)
let setup ~reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let s = f () in
    times := (now () -. t0) :: !times;
    last := Some s
  done;
  (median !times, Option.get !last)

(* {1 Per-layer recorder}

   In a traced run every call into a layer's public function goes
   through [span], which adds its wall time (and, for [words], its
   allocation) to the current op's row; [finish_op] closes the row. The
   per-layer metric is the median of the rows. *)

let current : (string, float) Hashtbl.t = Hashtbl.create 32
let rows : (string, float list) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace current name
    (v +. Option.value ~default:0. (Hashtbl.find_opt current name))

let set name v = Hashtbl.replace current name v

(* Milliseconds recorded by [span] so far, to take nested spans out of
   an enclosing one's self time. *)
let recorded = ref 0.

let span name f =
  let t0 = now () in
  let r = f () in
  let ms = (now () -. t0) *. 1e3 in
  add name ms;
  recorded := !recorded +. ms;
  r

(* [span_self name f] records [f]'s self time: its wall time minus the
   spans recorded inside it. *)
let span_self name f =
  let inner = !recorded and t0 = now () in
  let r = f () in
  let ms = (now () -. t0) *. 1e3 in
  let self = ms -. (!recorded -. inner) in
  add name self;
  recorded := !recorded +. self;
  r

(* [span_words name ~words ~per f] is [span name f] that also records
   the words [f] allocated, divided by [per], under [words]. *)
let span_words name ~words ~per f =
  let a0 = Gc.allocated_bytes () in
  let r = span name f in
  let w = (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) in
  set words (w /. float_of_int (max 1 per));
  r

(* [finish_op ~wall_ms] closes the current op's row, adding the op's
   traced wall time and the share of it the layer spans cover. *)
let finish_op ~wall_ms =
  let layers =
    Hashtbl.fold
      (fun k v acc -> if String.ends_with ~suffix:"_ms" k then acc +. v else acc)
      current 0.
  in
  set "trace.op_ms" wall_ms;
  set "trace.layer_share" (layers /. wall_ms);
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace rows k
        (v :: Option.value ~default:[] (Hashtbl.find_opt rows k)))
    current;
  Hashtbl.reset current

let layer_median name =
  match Hashtbl.find_opt rows name with None -> 0. | Some l -> median l

(* {1 The closed loop} *)

type loop = {
  times_ms : float list;  (** timed ops only *)
  attempted : int;  (** warm-up included *)
  failed : int;
  phase_s : float;  (** summed wall time of the timed ops *)
  alloc_bytes : float;  (** allocated over the timed ops *)
}

(* [closed_loop ~seconds ~min_ops ~round ~prepare op]: one warm-up op,
   untimed, then timed ops in whole rounds of [round] until both
   [seconds] of timed work and [min_ops] timed ops are reached. Op
   number [i] is [op (prepare i)]: the client builds its request in
   [prepare], outside the timed window, and [op] returns a checker that
   also runs outside it and returns [Error reason] when the output is
   wrong. An op that raises or fails its check counts as failed. *)
let closed_loop ~seconds ~min_ops ~round ~prepare op =
  let attempted = ref 0 and failed = ref 0 in
  let run i =
    incr attempted;
    let input = prepare i in
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let outcome = try Ok (op input) with e -> Error (Printexc.to_string e) in
    let dt = now () -. t0 in
    let da = Gc.allocated_bytes () -. a0 in
    if Hashtbl.length current > 0 then finish_op ~wall_ms:(dt *. 1e3);
    let verdict =
      match outcome with
      | Error e -> Error e
      | Ok check -> ( try check () with e -> Error (Printexc.to_string e))
    in
    (match verdict with
    | Ok () -> ()
    | Error e ->
      incr failed;
      Printf.eprintf "op %d failed: %s\n%!" i e);
    (dt, da)
  in
  ignore (run 0);
  Hashtbl.reset rows;
  let times = ref [] and phase = ref 0. and alloc = ref 0. and n = ref 0 in
  while !phase < seconds || !n < min_ops do
    for _ = 1 to round do
      incr n;
      let dt, da = run !n in
      times := (dt *. 1e3) :: !times;
      phase := !phase +. dt;
      alloc := !alloc +. da
    done
  done;
  {
    times_ms = List.rev !times;
    attempted = !attempted;
    failed = !failed;
    phase_s = !phase;
    alloc_bytes = !alloc;
  }

(* {1 Output} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let end_to_end ~setup_s ~top_heap_words (l : loop) =
  let n = float_of_int (List.length l.times_ms) in
  [ m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (n /. l.phase_s);
    m "op_p50_ms" "ms" (median l.times_ms);
    m "op_p90_ms" "ms" (quantile l.times_ms 0.9);
    m "peak_heap_mb" "MB"
      (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    m "alloc_mb_per_op" "MB" (l.alloc_bytes /. n /. 1048576.) ]

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Human-readable lines first, then the one-line JSON result last. *)
let report ~workload ~correct (l : loop) metrics =
  List.iter
    (fun x -> Printf.printf "%s  %-36s %16.6f %s\n" workload x.name x.value x.unit_)
    metrics;
  Printf.printf "%s  attempted=%d failed=%d correct=%b\n" workload l.attempted
    l.failed correct;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value)
          x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct l.attempted l.failed (String.concat ", " fields)
