(* Independent oracles. Everything here is computed from the rows the
   generators produced, with the benchmark's own hash tables, and the
   program's output is read with the benchmark's own readers — no
   function of the library under test is called. *)

(* An FD over column indexes. *)
type fd = { lhs : int array; rhs : int array }

(* The two FD sets the workloads use, on R(A,B,C,D) and R(A,B,C). *)
let poly_delta = [ { lhs = [| 0 |]; rhs = [| 1 |] }; { lhs = [| 0; 2 |]; rhs = [| 3 |] } ]
let hard_delta = [ { lhs = [| 0 |]; rhs = [| 1 |] }; { lhs = [| 1 |]; rhs = [| 2 |] } ]

let proj cols (r : int array) = Array.map (fun j -> r.(j)) cols

(* A row source: [iter f] calls [f cells weight] once per row. *)
type source = (int array -> float -> unit) -> unit

let add tbl k w =
  Hashtbl.replace tbl k (w +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let upd_max tbl k w =
  match Hashtbl.find_opt tbl k with
  | Some v when v >= w -> ()
  | _ -> Hashtbl.replace tbl k w

let sum tbl = Hashtbl.fold (fun _ w acc -> acc +. w) tbl 0.

let total (iter : source) =
  let t = ref 0. in
  iter (fun _ w -> t := !t +. w);
  !t

(* The kept weight of an optimal S-repair under Δ = {A→B; AC→D} on
   R(A,B,C,D): Σ_a max_b Σ_c max_d w(a,b,c,d). Common lhs A splits the
   table into independent A-blocks; in each, the consensus FD ∅→B keeps
   one B-class; inside it, common lhs C splits again and ∅→D keeps the
   heaviest D-class. Weights are integers, so the float sums are exact. *)
let poly_kept (iter : source) =
  let abcd = Hashtbl.create 4096 in
  iter (fun r w -> add abcd (r.(0), r.(1), r.(2), r.(3)) w);
  let abc = Hashtbl.create 4096 in
  Hashtbl.iter (fun (a, b, c, _) w -> upd_max abc (a, b, c) w) abcd;
  let ab = Hashtbl.create 4096 in
  Hashtbl.iter (fun (a, b, _) w -> add ab (a, b) w) abc;
  let best = Hashtbl.create 4096 in
  Hashtbl.iter (fun (a, _) w -> upd_max best a w) ab;
  sum best

(* [violation fds iter] is [None] when the rows satisfy every FD. *)
let violation fds (iter : source) =
  let bad = ref None in
  List.iteri
    (fun k fd ->
      let seen = Hashtbl.create 4096 in
      iter (fun r _ ->
          let l = proj fd.lhs r and x = proj fd.rhs r in
          match Hashtbl.find_opt seen l with
          | None -> Hashtbl.replace seen l x
          | Some y when y = x -> ()
          | Some _ ->
            if !bad = None then bad := Some (Printf.sprintf "violates FD #%d" k)))
    fds;
  !bad

(* A lower bound on the optimal deleted weight: for one FD, every
   lhs-group must lose all but one rhs-class, at least the group weight
   minus its heaviest class; the largest per-FD sum bounds the whole. *)
let lower_bound fds (iter : source) =
  List.fold_left
    (fun acc fd ->
      let group = Hashtbl.create 4096 and cls = Hashtbl.create 4096 in
      iter (fun r w ->
          let l = proj fd.lhs r in
          add group l w;
          add cls (l, proj fd.rhs r) w);
      let heaviest = Hashtbl.create 4096 in
      Hashtbl.iter (fun (l, _) w -> upd_max heaviest l w) cls;
      Float.max acc (sum group -. sum heaviest))
    0. fds

(* An upper bound: the deleted weight of a consistent subset built
   greedily — rows ordered by the weights of their classes under each
   FD, heaviest first (ties by position), each kept unless it conflicts
   with a row already kept. *)
let greedy_cost fds (rows : (int array * float) array) =
  let cls =
    List.map
      (fun fd ->
        let t = Hashtbl.create 4096 in
        Array.iter (fun (r, w) -> add t (proj fd.lhs r, proj fd.rhs r) w) rows;
        (fd, t))
      fds
  in
  let score (r, _) =
    List.map (fun (fd, t) -> Hashtbl.find t (proj fd.lhs r, proj fd.rhs r)) cls
  in
  let order =
    Array.init (Array.length rows) (fun i -> (score rows.(i), i))
  in
  Array.stable_sort (fun (s1, i1) (s2, i2) -> compare (s2, i1) (s1, i2)) order;
  let kept = List.map (fun fd -> (fd, Hashtbl.create 4096)) fds in
  let deleted = ref 0. in
  Array.iter
    (fun (_, i) ->
      let r, w = rows.(i) in
      let ok =
        List.for_all
          (fun (fd, t) ->
            match Hashtbl.find_opt t (proj fd.lhs r) with
            | None -> true
            | Some x -> x = proj fd.rhs r)
          kept
      in
      if ok then
        List.iter (fun (fd, t) -> Hashtbl.replace t (proj fd.lhs r) (proj fd.rhs r)) kept
      else deleted := !deleted +. w)
    order;
  !deleted

(* {1 Reading the program's output} *)

(* An output row: tuple id, weight, integer cells in schema order. *)
type out_row = { id : int; weight : float; cells : int array }

let fail fmt = Printf.ksprintf failwith fmt

let lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> l <> "")

(* The CSV renderer's form: a ["#id,#weight,<attrs>"] header, then one
   line of integer cells per tuple (nothing here needs quoting). Scanned
   in place: the output of one op can be hundreds of thousands of lines. *)
let read_csv ~attrs text =
  let n = String.length text in
  let want = String.concat "," ("#id" :: "#weight" :: Array.to_list attrs) in
  let eol = Option.value ~default:n (String.index_opt text '\n') in
  if String.sub text 0 eol <> want then
    fail "csv output: header %S" (String.sub text 0 eol);
  let k = Array.length attrs in
  let pos = ref (eol + 1) and acc = ref [] in
  (* The next field, up to a comma or newline, consumed with it. *)
  let field () =
    let s = !pos in
    while !pos < n && text.[!pos] <> ',' && text.[!pos] <> '\n' do incr pos done;
    let f = String.sub text s (!pos - s) in
    f, (if !pos < n then text.[!pos] else '\n')
  in
  let next_int ~last =
    let f, sep = field () in
    if sep <> (if last then '\n' else ',') then fail "csv output: bad line near %d" !pos;
    incr pos;
    match int_of_string_opt f with
    | Some v -> v
    | None -> fail "csv output: bad cell %S" f
  in
  while !pos < n do
    let id = next_int ~last:false in
    let w, sep = field () in
    if sep <> ',' then fail "csv output: bad line near %d" !pos;
    incr pos;
    let weight =
      match float_of_string_opt w with
      | Some v -> v
      | None -> fail "csv output: bad weight %S" w
    in
    let cells = Array.init k (fun j -> next_int ~last:(j = k - 1)) in
    acc := { id; weight; cells } :: !acc
  done;
  List.rev !acc

(* The JSONL renderer's form: flat objects whose values are integers,
   keys ["#id"], ["#weight"] and one per attribute, in any order. *)
let read_jsonl ~attrs text =
  let k = Array.length attrs in
  let index a =
    let rec go j = if j = k then fail "jsonl output: key %S" a
      else if attrs.(j) = a then j else go (j + 1) in
    go 0
  in
  List.map
    (fun l ->
      let n = String.length l and pos = ref 0 in
      let skip () = while !pos < n && (l.[!pos] = ' ' || l.[!pos] = '\t') do incr pos done in
      let expect c =
        skip ();
        if !pos >= n || l.[!pos] <> c then fail "jsonl output: bad line %S" l;
        incr pos
      in
      let key () =
        expect '"';
        let s = !pos in
        while !pos < n && l.[!pos] <> '"' do incr pos done;
        let key = String.sub l s (!pos - s) in
        expect '"';
        key
      in
      let int () =
        skip ();
        let s = !pos in
        if !pos < n && l.[!pos] = '-' then incr pos;
        while !pos < n && l.[!pos] >= '0' && l.[!pos] <= '9' do incr pos done;
        int_of_string (String.sub l s (!pos - s))
      in
      let id = ref (-1) and weight = ref nan and cells = Array.make k 0 in
      let filled = Array.make k false in
      expect '{';
      let rec fields () =
        let name = key () in
        expect ':';
        let v = int () in
        (match name with
        | "#id" -> id := v
        | "#weight" -> weight := float_of_int v
        | a ->
          let j = index a in
          cells.(j) <- v;
          filled.(j) <- true);
        skip ();
        if !pos < n && l.[!pos] = ',' then (incr pos; fields ()) else expect '}'
      in
      fields ();
      if !id < 0 || Float.is_nan !weight || not (Array.for_all Fun.id filled)
      then fail "jsonl output: missing key in %S" l;
      { id = !id; weight = !weight; cells })
    (lines text)

(* [subset ~lookup out] checks that every output row is an input row —
   same id, same cells, same weight, no id twice — and returns the kept
   weight. [lookup id] is the input row with that id. *)
let subset ~lookup out =
  let seen = Hashtbl.create 4096 in
  List.fold_left
    (fun acc o ->
      if Hashtbl.mem seen o.id then fail "output: id %d twice" o.id;
      Hashtbl.replace seen o.id ();
      match lookup o.id with
      | None -> fail "output: id %d is not an input row" o.id
      | Some (cells, w) ->
        if cells <> o.cells || w <> o.weight then
          fail "output: row %d differs from the input" o.id;
        acc +. o.weight)
    0. out

let iter_out out : source = fun f -> List.iter (fun o -> f o.cells o.weight) out

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b)
