type t = { label : string; glyph : char; series : Series.t }

let span items =
  List.fold_left
    (fun (lo, hi) item ->
      match (Series.first_time item.series, Series.last_time item.series) with
      | Some a, Some b -> (Float.min lo a, Float.max hi b)
      | _ -> (lo, hi))
    (infinity, neg_infinity) items

(* The canvas, in characters. *)
let width = 72

let height = 16

let render ?t0 ?t1 ?title items =
  if List.is_empty items then invalid_arg "Ascii_plot.render: no series";
  let auto_lo, auto_hi = span items in
  let t0 = match t0 with Some v -> v | None -> auto_lo in
  let t1 = match t1 with Some v -> v | None -> auto_hi in
  if not (Float.is_finite t0 && Float.is_finite t1 && t1 > t0) then
    invalid_arg "Ascii_plot.render: empty or invalid time range";
  (* Column-average every series over the canvas grid. *)
  let columns item =
    let sums = Array.make width 0.0 and counts = Array.make width 0 in
    Series.iter item.series (fun ~time ~value ->
        if time >= t0 && time <= t1 then begin
          let column =
            min (width - 1)
              (int_of_float (float_of_int width *. (time -. t0) /. (t1 -. t0)))
          in
          sums.(column) <- sums.(column) +. value;
          counts.(column) <- counts.(column) + 1
        end);
    Array.init width (fun i ->
        if counts.(i) = 0 then None else Some (sums.(i) /. float_of_int counts.(i)))
  in
  let all_columns = List.map (fun item -> (item, columns item)) items in
  let v_lo, v_hi =
    List.fold_left
      (fun acc (_, cols) ->
        Array.fold_left
          (fun (lo, hi) cell ->
            match cell with
            | Some v -> (Float.min lo v, Float.max hi v)
            | None -> (lo, hi))
          acc cols)
      (infinity, neg_infinity) all_columns
  in
  let buf = Buffer.create ((width + 12) * (height + 4)) in
  (match title with
  | Some s -> Buffer.add_string buf (Printf.sprintf "%s\n" s)
  | None -> ());
  if not (Float.is_finite v_lo) then begin
    Buffer.add_string buf "  (no data in range)\n";
    Buffer.contents buf
  end
  else begin
    let v_hi = if v_hi = v_lo then v_lo +. 1.0 else v_hi in
    let canvas = Array.make_matrix height width ' ' in
    List.iter
      (fun (item, cols) ->
        Array.iteri
          (fun x cell ->
            match cell with
            | None -> ()
            | Some v ->
                let y =
                  int_of_float
                    ((v -. v_lo) /. (v_hi -. v_lo) *. float_of_int (height - 1))
                in
                let row = height - 1 - min (height - 1) (max 0 y) in
                canvas.(row).(x) <- item.glyph)
          cols)
      all_columns;
    for row = 0 to height - 1 do
      let axis_value = v_hi -. (float_of_int row /. float_of_int (height - 1) *. (v_hi -. v_lo)) in
      let label =
        if row = 0 || row = height - 1 || row = height / 2 then
          Printf.sprintf "%8.1f |" axis_value
        else "         |"
      in
      Buffer.add_string buf label;
      Buffer.add_string buf (String.init width (fun x -> canvas.(row).(x)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf ("         +" ^ String.make width '-' ^ "\n");
    let left = Printf.sprintf "%.1fs" t0 and right = Printf.sprintf "%.1fs" t1 in
    let gap = max 1 (width - String.length left - String.length right) in
    Buffer.add_string buf
      (Printf.sprintf "          %s%s%s\n" left (String.make gap ' ') right);
    Buffer.add_string buf "          ";
    List.iter
      (fun (item, cols) ->
        let has_data = Array.exists Option.is_some cols in
        Buffer.add_string buf
          (Printf.sprintf "%c=%s%s  " item.glyph item.label
             (if has_data then "" else " (no data)")))
      all_columns;
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end
