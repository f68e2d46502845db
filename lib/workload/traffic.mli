(** The traffic generator driving the measurement and application planes. *)

val periodic :
  Tango_sim.Engine.t ->
  interval_s:float ->
  ?start_s:float ->
  ?until_s:float ->
  (Tango_sim.Engine.t -> unit) ->
  unit
(** Fire [f] every [interval_s] starting at [start_s] (default: now),
    stopping after [until_s]. The paper's probe train is
    [periodic ~interval_s:0.01]. *)
