type series = { label : string; glyph : char; values : float array }

(* The largest bar's length in characters. *)
let width = 50

let render ~categories series =
  if series = [] then invalid_arg "Chart.render: no series";
  let ncat = List.length categories in
  List.iter
    (fun s ->
      if Array.length s.values <> ncat then
        invalid_arg "Chart.render: series length mismatch";
      Array.iter
        (fun v -> if v < 0.0 then invalid_arg "Chart.render: negative value")
        s.values)
    series;
  let max_value =
    List.fold_left
      (fun acc s -> Array.fold_left Float.max acc s.values)
      0.0 series
  in
  let scale v =
    if max_value <= 0.0 then 0
    else int_of_float (Float.round (v /. max_value *. float_of_int width))
  in
  let label_width =
    List.fold_left (fun acc s -> max acc (String.length s.label)) 0 series
  in
  let cat_width =
    List.fold_left (fun acc c -> max acc (String.length c)) 0 categories
  in
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i cat ->
      Buffer.add_string buf cat;
      Buffer.add_char buf '\n';
      List.iter
        (fun s ->
          let v = s.values.(i) in
          Buffer.add_string buf (String.make cat_width ' ');
          Buffer.add_string buf "  ";
          Buffer.add_string buf s.label;
          Buffer.add_string buf
            (String.make (label_width - String.length s.label) ' ');
          Buffer.add_string buf " |";
          Buffer.add_string buf (String.make (scale v) s.glyph);
          Buffer.add_char buf ' ';
          Buffer.add_string buf (Printf.sprintf "%.3f" v);
          Buffer.add_char buf '\n')
        series)
    categories;
  (* legend *)
  Buffer.add_string buf "legend:";
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf " [%c]=%s" s.glyph s.label))
    series;
  Buffer.contents buf

let spark_glyphs = [| " "; "_"; "."; ":"; "-"; "="; "+"; "#" |]

let render_sparkline values =
  if Array.length values = 0 then ""
  else
    let lo, hi = Stats.min_max values in
    let span = hi -. lo in
    let level v =
      if span <= 0.0 then 4
      else
        let r = (v -. lo) /. span *. 7.0 in
        int_of_float (Float.round r)
    in
    String.concat ""
      (Array.to_list (Array.map (fun v -> spark_glyphs.(level v)) values))
