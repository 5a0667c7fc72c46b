(* Seeded input generators. Each generator draws from its own
   [Random.State] built from the run seed and a per-use tag, so one seed
   gives the same inputs on every run. The table text is written here,
   directly from the generated rows; the program under test only ever
   receives that text, and the oracles only ever read the rows. *)

(* Column-major rows with integer cells and integer weights; row [i]
   carries tuple id [i + 1], the id the readers assign by default. *)
type rows = { cols : int array array; w : int array }

let rng ~seed ~tag = Random.State.make [| seed; tag |]
let size r = Array.length r.w
let row r i = Array.map (fun col -> col.(i)) r.cols

(* A deterministic scramble for "canonical" values: the clean value of a
   dependent column as a function of its determinant. *)
let mix x salt = (x * 0x2545F491 + salt * 0x9E3779B1) land 0x3FFFFFFF

(* {1 The tractable shape: R(A,B,C,D), Δ = {A→B; AC→D}}

   Clean rows pick A and C uniformly and take B = f(A), D = g(A,C);
   with probability [noise] one cell (column uniform) is overwritten by
   a uniform value of that column's domain. *)

type poly = {
  n : int;
  n_a : int;
  n_b : int;
  n_c : int;
  n_d : int;
  noise : float;
}

let poly_fds = "A -> B; A C -> D"
let poly_attrs = [| "A"; "B"; "C"; "D" |]

let poly_row st (p : poly) =
  let a = Random.State.int st p.n_a and c = Random.State.int st p.n_c in
  let r = [| a; mix a 1 mod p.n_b; c; mix a (c + 7) mod p.n_d |] in
  if Random.State.float st 1.0 < p.noise then begin
    let j = Random.State.int st 4 in
    r.(j) <- Random.State.int st [| p.n_a; p.n_b; p.n_c; p.n_d |].(j)
  end;
  r

let poly_rows st p =
  let cols = Array.init 4 (fun _ -> Array.make p.n 0) in
  for i = 0 to p.n - 1 do
    Array.iteri (fun j v -> cols.(j).(i) <- v) (poly_row st p)
  done;
  { cols; w = Array.make p.n 1 }

(* {1 The APX-hard shape: R(A,B,C), Δ = {A→B; B→C}}

   About [n / n_a] rows per A-value. B = f(A) except with probability
   [b_noise] (then uniform over [n_b] values); C = g(B) except with
   probability [c_noise] (then uniform over [n_c]). Weights are uniform
   in 1..4, so the vertex cover is a weighted one. *)

type hard = {
  hn : int;
  hn_a : int;
  hn_b : int;
  hn_c : int;
  b_noise : float;
  c_noise : float;
}

let hard_fds = "A -> B; B -> C"
let hard_attrs = [| "A"; "B"; "C" |]

let hard_rows st h =
  let cols = Array.init 3 (fun _ -> Array.make h.hn 0) in
  let w = Array.make h.hn 1 in
  for i = 0 to h.hn - 1 do
    let a = Random.State.int st h.hn_a in
    let b =
      if Random.State.float st 1.0 < h.b_noise then Random.State.int st h.hn_b
      else mix a 3 mod h.hn_b
    in
    let c =
      if Random.State.float st 1.0 < h.c_noise then Random.State.int st h.hn_c
      else mix b 5 mod h.hn_c
    in
    cols.(0).(i) <- a;
    cols.(1).(i) <- b;
    cols.(2).(i) <- c;
    w.(i) <- 1 + Random.State.int st 4
  done;
  { cols; w }

(* {1 Text} *)

(* CSV with a header of attribute names and no reserved columns: ids
   run 1..n and weights are 1, so this is only used for unit weights. *)
let csv_text attrs r =
  assert (Array.for_all (fun w -> w = 1) r.w);
  let buf = Buffer.create (size r * 24) in
  Buffer.add_string buf (String.concat "," (Array.to_list attrs));
  Buffer.add_char buf '\n';
  for i = 0 to size r - 1 do
    Array.iteri
      (fun j col ->
        if j > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int col.(i)))
      r.cols;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* JSON lines with a ["#weight"] key and one integer per attribute. *)
let jsonl_text attrs r =
  let buf = Buffer.create (size r * 40) in
  for i = 0 to size r - 1 do
    Buffer.add_string buf "{\"#weight\": ";
    Buffer.add_string buf (string_of_int r.w.(i));
    Array.iteri
      (fun j col ->
        Buffer.add_string buf ", \"";
        Buffer.add_string buf attrs.(j);
        Buffer.add_string buf "\": ";
        Buffer.add_string buf (string_of_int col.(i)))
      r.cols;
    Buffer.add_string buf "}\n"
  done;
  Buffer.contents buf

(* Stream delta lines ({!Repair_stream.Delta}'s JSONL form). *)
let delete_line id = Printf.sprintf "{\"op\":\"delete\",\"id\":%d}" id

let insert_line id cells =
  Printf.sprintf "{\"op\":\"insert\",\"id\":%d,\"tuple\":[%s]}" id
    (String.concat "," (Array.to_list (Array.map string_of_int cells)))
