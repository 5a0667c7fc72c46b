(* Served streaming sessions: [Repair.Serve.exec] behind an in-process
   [Engine] (handle_line → take → execute, no sockets). One closed-loop
   client drives [conns] connection cookies, each with a stream session
   over a [Gen.poly] table under Δ = {A→B; AC→D}. Every request carries
   [pairs] delete+insert pairs, so the live size stays constant, and gets
   the refreshed repair back as CSV. *)

module R = Repair_core.Repair
module Engine = R.Serve.Engine
module Protocol = R.Serve.Protocol
module Session = R.Stream.Session
module H = Harness

let conns = 4
let pairs = 100

let shape : Gen.poly =
  { n = 10_000; n_a = 500; n_b = 1_000; n_c = 8; n_d = 1_000; noise = 0.05 }

(* {1 The client's model of one session's live rows} *)

type model = {
  cells : (int, int array) Hashtbl.t;  (** live id -> cells *)
  ids : int array;  (** live ids, for uniform picks *)
  live : int;  (** constant: each delete is paired with an insert *)
  mutable next_id : int;
}

let model_of (rows : Gen.rows) =
  let n = Gen.size rows in
  let cells = Hashtbl.create (2 * n) in
  for i = 0 to n - 1 do
    Hashtbl.replace cells (i + 1) (Gen.row rows i)
  done;
  { cells; ids = Array.init n (fun i -> i + 1); live = n; next_id = n + 1 }

let iter_model m : Oracle.source =
 fun f -> Hashtbl.iter (fun _ c -> f c 1.) m.cells

(* {1 Wire text, written by the client} *)

let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let request ~id ~field ~text =
  Printf.sprintf "{\"id\":%d,\"op\":\"stream\",\"fds\":%s,%S:%s}" id
    (json_string Gen.poly_fds) field (json_string text)

(* [deltas st m] draws one request's delete+insert pairs and applies
   them to the model. *)
let deltas st m =
  let b = Buffer.create (pairs * 64) in
  for _ = 1 to pairs do
    let k = Random.State.int st m.live in
    let victim = m.ids.(k) in
    let id = m.next_id in
    let cells = Gen.poly_row st shape in
    m.next_id <- id + 1;
    m.ids.(k) <- id;
    Hashtbl.remove m.cells victim;
    Hashtbl.replace m.cells id cells;
    Buffer.add_string b (Gen.delete_line victim);
    Buffer.add_char b '\n';
    Buffer.add_string b (Gen.insert_line id cells);
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* {1 Reading a reply}

   A reply is one flat JSON object; [fields line] returns its top-level
   members as raw text (strings unescaped). Nested values are skipped. *)

let fields line =
  let n = String.length line and pos = ref 0 in
  let fail () = failwith ("reply: malformed at " ^ string_of_int !pos) in
  let peek () = if !pos < n then line.[!pos] else fail () in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\n') do incr pos done
  in
  let string () =
    incr pos;
    let b = Buffer.create 64 in
    let run = ref !pos in
    while peek () <> '"' do
      if line.[!pos] = '\\' then begin
        Buffer.add_substring b line !run (!pos - !run);
        incr pos;
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | _ -> fail ());
        run := !pos + 1
      end;
      incr pos
    done;
    Buffer.add_substring b line !run (!pos - !run);
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> string ()
    | ('[' | '{') as o ->
      let close = if o = '[' then ']' else '}' in
      incr pos;
      skip_ws ();
      if peek () = close then incr pos
      else begin
        let continue = ref true in
        while !continue do
          if o = '{' then begin
            skip_ws ();
            ignore (string ());
            skip_ws ();
            if peek () <> ':' then fail ();
            incr pos
          end;
          ignore (value ());
          skip_ws ();
          if peek () = ',' then incr pos
          else if peek () = close then (incr pos; continue := false)
          else fail ()
        done
      end;
      "<nested>"
    | _ ->
      let s = !pos in
      while !pos < n && not (List.mem line.[!pos] [ ','; '}'; ']'; ' ' ]) do
        incr pos
      done;
      String.sub line s (!pos - s)
  in
  skip_ws ();
  if peek () <> '{' then fail ();
  incr pos;
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    skip_ws ();
    let k = string () in
    skip_ws ();
    if peek () <> ':' then fail ();
    incr pos;
    acc := (k, value ()) :: !acc;
    skip_ws ();
    if peek () = ',' then incr pos
    else if peek () = '}' then continue := false
    else fail ()
  done;
  !acc

(* [check m ~applied reply] — the reply must carry the model's row
   count, the applied-delta count, and a CSV repair that is a subset of
   the live rows, satisfies Δ, and keeps the optimal weight
   Σ_a max_b Σ_c max_d w(a,b,c,d) of the model. *)
let check m ~applied reply () =
  let f = fields reply in
  let get k =
    match List.assoc_opt k f with
    | Some v -> v
    | None -> failwith ("reply: no field " ^ k)
  in
  if get "ok" <> "true" then Error ("reply not ok: " ^ String.sub reply 0 (min 200 (String.length reply)))
  else if int_of_string (get "rows") <> m.live then
    Error (Printf.sprintf "rows %s, live %d" (get "rows") m.live)
  else if int_of_string (get "applied") <> applied then
    Error (Printf.sprintf "applied %s, sent %d" (get "applied") applied)
  else begin
    let iter = iter_model m in
    let opt = Oracle.total iter -. Oracle.poly_kept iter in
    let distance = float_of_string (get "distance") in
    let out = Oracle.read_csv ~attrs:Gen.poly_attrs (get "table") in
    let kept =
      Oracle.subset
        ~lookup:(fun id ->
          Option.map (fun c -> (c, 1.)) (Hashtbl.find_opt m.cells id))
        out
    in
    match Oracle.violation Oracle.poly_delta (Oracle.iter_out out) with
    | Some v -> Error ("repair " ^ v)
    | None when not (Oracle.close distance opt) ->
      Error (Printf.sprintf "distance %g, optimum %g" distance opt)
    | None when not (Oracle.close (float_of_int m.live -. kept) opt) ->
      Error (Printf.sprintf "table keeps %g of %d, optimum deletes %g" kept m.live opt)
    | None -> Ok ()
  end

(* {1 The server side} *)

type server = {
  engine : Engine.t;
  exec : Engine.exec;
  cache : (string, R.Serve.warm) R.Serve.Cache.t;
  sessions : (int, R.Serve.session_slot) R.Serve.Cache.t;
  mutex : Mutex.t;
}

let server () =
  let cache = R.Serve.make_cache () and sessions = R.Serve.make_sessions () in
  let mutex = Mutex.create () in
  let exec ~conn ~degraded req =
    R.Serve.exec ~cache ~sessions ~mutex ~conn ~degraded
      ~budget:(R.Runtime.Budget.unlimited ()) req
  in
  { engine = Engine.create Engine.default_config; exec; cache; sessions; mutex }

let send srv ~conn line =
  match Engine.handle_line srv.engine ~conn ~quota_used:0 line with
  | `Reply r | `Drain r -> r
  | `Enqueued -> (
    match Engine.take srv.engine with
    | Some p -> Engine.execute srv.engine ~exec:srv.exec p
    | None -> failwith "engine: admitted request not queued")

(* [Repair.Serve.exec]'s stream branch for a continuing session,
   unrolled into the layer calls it makes, each timed. Like the real
   one it holds the session mutex throughout, and it starts with the
   warm FD-set lookup and the session-key check. *)
let traced_exec srv ~conn ~degraded:_ (req : Protocol.request) =
  Mutex.lock srv.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.mutex) @@ fun () ->
  let session =
    H.span "serve.lookup_ms" (fun () ->
        ignore
          (R.Serve.Cache.find_or_add srv.cache req.Protocol.fds (fun () ->
               failwith "stream: FD set not warm"));
        match R.Serve.Cache.find srv.sessions conn with
        | Some slot when slot.R.Serve.fds_text = req.fds && req.table = "" ->
          slot.R.Serve.session
        | _ -> failwith "stream: no session for this connection")
  in
  let applied = ref 0 in
  List.iteri
    (fun i l ->
      if String.trim l <> "" then begin
        let d =
          H.span "stream.delta_parse_ms" (fun () ->
              R.Stream.Delta.parse ~line:(i + 1) l)
        in
        H.span "stream.tick_ms" (fun () -> Session.tick session d);
        incr applied
      end)
    (String.split_on_char '\n' req.Protocol.deltas);
  let r = H.span "stream.summary_ms" (fun () -> Session.summary session) in
  let st = Session.stats session in
  let table =
    H.span "relational.csv_render_ms" (fun () ->
        R.Relational.Csv_io.to_string r.Session.result)
  in
  let module J = R.Obs.Json in
  [ ("distance", J.Float r.Session.distance);
    ("method", J.String r.Session.method_used);
    ("optimal", J.Bool r.Session.optimal);
    ("ratio", J.Float r.Session.ratio);
    ("degraded", J.Bool false);
    ("fallbacks", J.List []);
    ("table", J.String table);
    ("applied", J.Int !applied);
    ("ticks", J.Int st.Session.ticks);
    ("rows", J.Int st.Session.live) ]

(* The same request with [Engine.execute] split into its two documented
   halves, [run_exec] (the isolation boundary and metrics capture around
   the executor) and [settle] (accounting and the reply line), around
   the unrolled executor. *)
let traced_send srv ~conn line =
  let p =
    H.span "serve.handle_line_ms" (fun () ->
        match Engine.handle_line srv.engine ~conn ~quota_used:0 line with
        | `Enqueued -> Option.get (Engine.take srv.engine)
        | `Reply _ | `Drain _ -> failwith "engine: stream request not admitted")
  in
  let executed =
    H.span_self "serve.run_exec_ms" (fun () ->
        Engine.run_exec ~exec:(traced_exec srv) p)
  in
  H.span "serve.settle_ms" (fun () -> Engine.settle srv.engine p executed)

let run ~seed ~seconds ~traced =
  (* The daemon runs with the metrics registry on. *)
  R.Obs.Metrics.enable ();
  (* Set-up: generate each cookie's base table and open its session
     with a stream request carrying the table and no deltas. *)
  let setup_s, (srv, opened) =
    H.setup ~reps:5 (fun () ->
        let srv = server () in
        let st = Gen.rng ~seed ~tag:2 in
        ( srv,
          List.init conns (fun conn ->
              let rows = Gen.poly_rows st shape in
              let text = Gen.csv_text Gen.poly_attrs rows in
              (model_of rows, send srv ~conn (request ~id:conn ~field:"table" ~text))) ))
  in
  let models = Array.of_list (List.map fst opened) in
  let opening_ok =
    List.for_all (fun (m, reply) -> check m ~applied:0 reply () = Ok ()) opened
  in
  let st = Gen.rng ~seed ~tag:3 in
  let send = if traced then traced_send else send in
  let loop =
    H.closed_loop ~seconds ~min_ops:100 ~round:conns
      ~prepare:(fun i ->
        let conn = i mod conns in
        let text = deltas st models.(conn) in
        (conn, request ~id:(conns + i) ~field:"deltas" ~text))
      (fun (conn, line) ->
        let reply = send srv ~conn line in
        check models.(conn) ~applied:(2 * pairs) reply)
  in
  let layers =
    if not traced then []
    else begin
      let stats =
        List.init conns (fun conn ->
            match R.Serve.Cache.find srv.sessions conn with
            | Some slot -> Session.stats slot.R.Serve.session
            | None -> failwith "no session")
      in
      let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
      let hits = sum (fun s -> s.Session.cache.hits)
      and misses = sum (fun s -> s.Session.cache.misses) in
      [ ("stream.block_cache_hit_ratio", hits /. Float.max 1. (hits +. misses)) ]
    end
  in
  (loop, setup_s, opening_ok, layers)
