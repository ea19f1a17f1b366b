let section title =
  let line = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title line

let table ~title ~headers rows =
  Printf.printf "\n-- %s --\n" title;
  let all = headers :: rows in
  let cols = List.length headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell -> Printf.printf "%-*s  " (List.nth widths c) cell)
      row;
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let series ?(unit_label = "x") ~title rows =
  Printf.printf "\n-- %s --\n" title;
  let maxv = List.fold_left (fun acc (_, v) -> Float.max acc v) 1e-9 rows in
  let label_w = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows in
  List.iter
    (fun (label, v) ->
      let bar = int_of_float (Float.round (v /. maxv *. 40.)) in
      Printf.printf "%-*s  %6.2f%s  %s\n" label_w label v unit_label (String.make (max 0 bar) '#'))
    rows

let geomean vs =
  match vs with
  | [] -> nan
  | _ ->
      let n = float_of_int (List.length vs) in
      exp (List.fold_left (fun acc v -> acc +. log v) 0. vs /. n)

let minmax vs =
  List.fold_left
    (fun (lo, hi) v -> (Float.min lo v, Float.max hi v))
    (infinity, neg_infinity) vs

