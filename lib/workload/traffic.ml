module Engine = Tango_sim.Engine

let periodic engine ~interval_s ?start_s ?until_s f =
  if interval_s <= 0.0 then invalid_arg "Traffic.periodic: non-positive interval";
  let start = match start_s with Some s -> s | None -> Engine.now engine in
  let rec tick e =
    (match until_s with
    | Some stop when Engine.now e > stop -> ()
    | Some _ | None ->
        f e;
        Engine.schedule e ~delay:interval_s tick)
  in
  Engine.schedule_at engine ~time:(Float.max start (Engine.now engine)) tick
