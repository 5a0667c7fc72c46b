(* The CLI-shaped file job: read the input file, parse it, repair it
   with the driver's Auto strategy, render the result and write it back.
   [csv-poly] runs it on a tractable Δ (OptSRepair), [jsonl-approx] on
   an APX-hard one (the 2-approximation). *)

module R = Repair_core.Repair
open R.Relational
module H = Harness

type format = Csv | Jsonl

(* What a correct output must satisfy, fixed at set-up from the rows. *)
type expect =
  | Optimal of float  (** the optimal deleted weight *)
  | Bounds of { lb : float; ub : float }
      (** LB ≤ distance ≤ 2·UB for the 2-approximation *)

type spec = {
  format : format;
  fds : string;
  oracle_fds : Oracle.fd list;
  attrs : string array;
  gen : Random.State.t -> Gen.rows;
  expect : Gen.rows -> expect;
}

let source (rows : Gen.rows) : Oracle.source =
 fun f ->
  for i = 0 to Gen.size rows - 1 do
    f (Gen.row rows i) (float_of_int rows.w.(i))
  done

let csv_poly =
  {
    format = Csv;
    fds = Gen.poly_fds;
    oracle_fds = Oracle.poly_delta;
    attrs = Gen.poly_attrs;
    gen =
      (fun st ->
        Gen.poly_rows st
          { n = 100_000; n_a = 2_000; n_b = 1_000; n_c = 8; n_d = 1_000;
            noise = 0.05 });
    expect =
      (fun rows ->
        let iter = source rows in
        Optimal (Oracle.total iter -. Oracle.poly_kept iter));
  }

let jsonl_approx =
  {
    format = Jsonl;
    fds = Gen.hard_fds;
    oracle_fds = Oracle.hard_delta;
    attrs = Gen.hard_attrs;
    gen =
      (fun st ->
        Gen.hard_rows st
          { hn = 100_000; hn_a = 2_000; hn_b = 500; hn_c = 100; b_noise = 0.15;
            c_noise = 0.025 });
    expect =
      (fun rows ->
        let all =
          Array.init (Gen.size rows) (fun i ->
              (Gen.row rows i, float_of_int rows.w.(i)))
        in
        Bounds
          {
            lb = Oracle.lower_bound Oracle.hard_delta (source rows);
            ub = Oracle.greedy_cost Oracle.hard_delta all;
          });
  }

let work_dir = Filename.concat "e2ebench" "_work"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let check spec rows expect ~reported output () =
  let n = Gen.size rows in
  let lookup id =
    if id >= 1 && id <= n then
      Some (Gen.row rows (id - 1), float_of_int rows.w.(id - 1))
    else None
  in
  let out =
    match spec.format with
    | Csv -> Oracle.read_csv ~attrs:spec.attrs (read_file output)
    | Jsonl -> Oracle.read_jsonl ~attrs:spec.attrs (read_file output)
  in
  let kept = Oracle.subset ~lookup out in
  let total = Array.fold_left (fun acc w -> acc +. float_of_int w) 0. rows.w in
  let dist = total -. kept in
  match Oracle.violation spec.oracle_fds (Oracle.iter_out out) with
  | Some v -> Error ("output " ^ v)
  | None when not (Oracle.close reported dist) ->
    Error (Printf.sprintf "reported distance %g, output's %g" reported dist)
  | None -> (
    match expect with
    | Optimal opt when Oracle.close dist opt -> Ok ()
    | Optimal opt -> Error (Printf.sprintf "distance %g, optimum %g" dist opt)
    | Bounds { lb; ub } when lb <= dist +. 1e-6 && dist <= (2. *. ub) +. 1e-6 ->
      Ok ()
    | Bounds { lb; ub } ->
      Error (Printf.sprintf "distance %g outside [%g, 2·%g]" dist lb ub))

let parse spec ~file text =
  match spec.format with
  | Csv -> Csv_io.parse_string ~file ~name:"T" text
  | Jsonl -> Jsonl_io.parse_string ~file ~name:"T" text

let render spec tbl =
  match spec.format with
  | Csv -> Csv_io.to_string tbl
  | Jsonl -> Jsonl_io.to_string tbl

(* The op as a user runs it: one driver call between parse and render. *)
let op spec ~n:_ ~input ~output () =
  let text = read_file input in
  let tbl = parse spec ~file:input text in
  let d = R.Fd.Fd_set.parse spec.fds in
  let r = R.Driver.s_repair ~strategy:R.Driver.Auto d tbl in
  write_file output (render spec r.R.Driver.result);
  r.R.Driver.distance

(* The same op with the driver call unrolled into the layer calls the
   Auto strategy makes ([Driver.s_repair_result]), each timed. *)
let traced_op spec ~n ~input ~output () =
  let text = H.span "relational.read_ms" (fun () -> read_file input) in
  let tbl =
    match spec.format with
    | Csv ->
      H.span_words "relational.csv_parse_ms"
        ~words:"relational.csv_parse_words_per_row" ~per:n (fun () ->
          parse spec ~file:input text)
    | Jsonl ->
      H.span_words "relational.jsonl_parse_ms"
        ~words:"relational.jsonl_parse_words_per_row" ~per:n (fun () ->
          parse spec ~file:input text)
  in
  let d = R.Fd.Fd_set.parse spec.fds in
  let poly =
    H.span "dichotomy.simplify_ms" (fun () -> R.Dichotomy.Simplify.succeeds d)
  in
  let result =
    if poly then
      H.span_words "srepair.opt_s_repair_ms"
        ~words:"srepair.opt_s_repair_words_per_row" ~per:(Table.size tbl)
        (fun () ->
          match
            R.Srepair.Opt_s_repair.run ~budget:(R.Runtime.Budget.unlimited ()) d
              tbl
          with
          | Ok s -> s
          | Error _ -> failwith "OptSRepair got stuck on a tractable Δ")
    else begin
      let module Cg = R.Srepair.Conflict_graph in
      let cg = H.span "srepair.conflict_graph_ms" (fun () -> Cg.build d tbl) in
      H.set "srepair.conflict_edges" (float_of_int (Cg.n_conflicts cg));
      let cover =
        H.span "graph.vertex_cover_ms" (fun () ->
            R.Graph.Vertex_cover.approx2 (Cg.graph cg))
      in
      H.set "graph.cover_size" (float_of_int (List.length cover));
      H.span "srepair.delete_cover_ms" (fun () -> Cg.delete_cover cg tbl cover)
    end
  in
  let distance =
    H.span "relational.dist_sub_ms" (fun () -> Table.dist_sub result tbl)
  in
  let out =
    match spec.format with
    | Csv -> H.span "relational.csv_render_ms" (fun () -> render spec result)
    | Jsonl -> H.span "relational.jsonl_render_ms" (fun () -> render spec result)
  in
  H.span "relational.write_ms" (fun () -> write_file output out);
  distance

let run spec ~name ~seed ~seconds ~traced =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let ext = match spec.format with Csv -> ".csv" | Jsonl -> ".jsonl" in
  let input = Filename.concat work_dir (name ^ ".in" ^ ext) in
  let output = Filename.concat work_dir (name ^ ".out" ^ ext) in
  (* Set-up: generate the rows, write the text, write the input file. *)
  let setup_s, rows =
    H.setup ~reps:9 (fun () ->
        let rows = spec.gen (Gen.rng ~seed ~tag:1) in
        let text =
          match spec.format with
          | Csv -> Gen.csv_text spec.attrs rows
          | Jsonl -> Gen.jsonl_text spec.attrs rows
        in
        write_file input text;
        rows)
  in
  let expect = spec.expect rows in
  let op = if traced then traced_op spec else op spec in
  let loop =
    H.closed_loop ~seconds ~min_ops:5 ~round:1 ~prepare:ignore (fun () ->
        let reported = op ~n:(Gen.size rows) ~input ~output () in
        check spec rows expect ~reported output)
  in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ input; output ];
  (loop, setup_s, true, [])
