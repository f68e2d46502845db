(* Index of the last sample at or before [target], or -1. *)
let last_at_or_before series target =
  let n = Series.length series in
  let rec search lo hi =
    if lo > hi then hi
    else begin
      let mid = (lo + hi) / 2 in
      if Series.time_at series mid <= target then search (mid + 1) hi
      else search lo (mid - 1)
    end
  in
  search 0 (n - 1)

let aligned_to_channel oc ~labels series_list =
  if List.length labels <> List.length series_list then
    invalid_arg "Export.aligned_to_channel: labels/series mismatch";
  Printf.fprintf oc "time,%s\n" (String.concat "," labels);
  match series_list with
  | [] -> ()
  | grid :: _ ->
      Series.iter grid (fun ~time ~value:_ ->
          let cells =
            List.map
              (fun s ->
                let i = last_at_or_before s time in
                if i < 0 then "" else Printf.sprintf "%.6f" (Series.value_at s i))
              series_list
          in
          Printf.fprintf oc "%.6f,%s\n" time (String.concat "," cells))

let with_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let aligned_to_file path ~labels series_list =
  with_file path (fun oc -> aligned_to_channel oc ~labels series_list)
