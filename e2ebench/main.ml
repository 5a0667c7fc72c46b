(* The end-to-end repair benchmark. One run measures one workload:

     main.exe --workload csv-poly|jsonl-approx|serve-stream|all
              --seed N --seconds S --trace 0|1

   It prints each metric on its own line and, last, one JSON object
   {"correct", "attempted", "failed", "metrics"}. [all] runs the three
   workloads one after the other, and is the default; [--seconds]
   defaults to 25, the run length in BENCHMARK.json. With [--trace 0] the
   metrics are the end-to-end ones; with [--trace 1] the ops are unrolled
   into their layer calls and the per-layer metrics are printed. *)

module H = Harness

(* Per-layer metrics of a traced run, in print order: the median over
   timed ops of each layer's time (or count) within one op. A layer the
   workload does not call reads 0. *)
let layers =
  [ ("relational.read_ms", "ms");
    ("relational.write_ms", "ms");
    ("relational.csv_parse_ms", "ms");
    ("relational.csv_parse_words_per_row", "words/row");
    ("relational.csv_render_ms", "ms");
    ("relational.jsonl_parse_ms", "ms");
    ("relational.jsonl_parse_words_per_row", "words/row");
    ("relational.jsonl_render_ms", "ms");
    ("relational.dist_sub_ms", "ms");
    ("dichotomy.simplify_ms", "ms");
    ("srepair.opt_s_repair_ms", "ms");
    ("srepair.opt_s_repair_words_per_row", "words/row");
    ("srepair.conflict_graph_ms", "ms");
    ("srepair.conflict_edges", "count");
    ("srepair.delete_cover_ms", "ms");
    ("graph.vertex_cover_ms", "ms");
    ("graph.cover_size", "count");
    ("serve.handle_line_ms", "ms");
    ("serve.lookup_ms", "ms");
    ("serve.run_exec_ms", "ms");
    ("serve.settle_ms", "ms");
    ("stream.delta_parse_ms", "ms");
    ("stream.tick_ms", "ms");
    ("stream.summary_ms", "ms");
    ("stream.block_cache_hit_ratio", "ratio");
    ("trace.op_ms", "ms");
    ("trace.layer_share", "ratio") ]

let run workload ~seed ~seconds ~traced =
  let loop, setup_s, setup_ok, extra =
    match workload with
    | "csv-poly" ->
      File_job.run File_job.csv_poly ~name:workload ~seed ~seconds ~traced
    | "jsonl-approx" ->
      File_job.run File_job.jsonl_approx ~name:workload ~seed ~seconds ~traced
    | "serve-stream" -> Serve_stream.run ~seed ~seconds ~traced
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let metrics =
    if traced then
      List.map
        (fun (name, unit_) ->
          let v =
            match List.assoc_opt name extra with
            | Some v -> v
            | None -> H.layer_median name
          in
          H.m name unit_ v)
        layers
      @ [ H.m "trace.ops_per_s" "1/s"
            (float_of_int (List.length loop.H.times_ms) /. loop.H.phase_s) ]
    else
      H.end_to_end ~setup_s ~top_heap_words:(Gc.quick_stat ()).Gc.top_heap_words
        loop
  in
  H.report ~workload ~correct:(setup_ok && loop.H.failed = 0) loop metrics

(* Each workload of [all] runs in a child process of its own, one at a
   time, so that none inherits another's heap and its peak. *)
let run_all () =
  let ok =
    List.for_all
      (fun w ->
        (* The last [--workload] given wins. *)
        let argv = Array.append Sys.argv [| "--workload"; w |] in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
            Unix.stderr
        in
        snd (Unix.waitpid [] pid) = Unix.WEXITED 0)
      [ "csv-poly"; "jsonl-approx"; "serve-stream" ]
  in
  exit (if ok then 0 else 1)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 25. in
  let trace = ref 0 in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        " csv-poly | jsonl-approx | serve-stream | all (the default)" );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " timed work per run (default 25)");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !workload = "all" then run_all ()
  else run !workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
