type event =
  | Level_shift of { at : float; before_ms : float; after_ms : float }
  | Spike of { at : float; value_ms : float; baseline_ms : float }

(* Detection runs on the per-reception hot path (one [update] per data
   packet), so both comparison windows are index ranges into the
   stream's ring and the event history is one flat float array grown
   cold on overflow — no queues, no boxed tuples, no option results.
   Constructed [event] values exist only on the cold read side
   ({!events}). *)

(* An event's kind, the first of its four history slots. *)
let ev_shift = 0.0

let ev_spike = 1.0

type t = {
  recent : Rolling.t;
  (* Window [t-2w, t-w]: the samples a window old, taken in order as
     they age; its [stop] is the aged-sample cursor. *)
  older : Rolling.t;
  (* The windows' means, older then recent, read through a float array:
     returned from [Rolling] they would be boxed. *)
  means : float array;
  mutable last_shift_at : float;
  mutable last_spike_at : float;
  (* Event history, oldest first, four slots per event: kind, at, then
     (before, after) for a shift or (value, baseline) for a spike. *)
  mutable history : floatarray;
  mutable ev_count : int;
}

(* Length of each of the two adjacent comparison windows, which is also
   the spike cooldown; minimum difference of window means to report a
   shift, excursion above the older window's mean to report a spike,
   and the hold-off that keeps one route change from reporting twice. *)
let window_s = 5.0

let shift_threshold_ms = 2.0

let spike_threshold_ms = 10.0

let shift_cooldown_s = 30.0

let of_ring ring =
  {
    recent = Rolling.window ring ~window_s;
    older = Rolling.window ring ~window_s;
    means = [| nan; nan |];
    last_shift_at = neg_infinity;
    last_spike_at = neg_infinity;
    history = Float.Array.make 64 0.0;
    ev_count = 0;
  }

let create () = of_ring (Rolling.ring ())

let push_event t ~kind ~at ~a ~b =
  let i = 4 * t.ev_count in
  if i = Float.Array.length t.history then begin
    (* Cold: double the history. *)
    let grown = Float.Array.make (2 * i) 0.0 in
    Float.Array.blit t.history 0 grown 0 i;
    t.history <- grown
  end;
  Float.Array.set t.history i kind;
  Float.Array.set t.history (i + 1) at;
  Float.Array.set t.history (i + 2) a;
  Float.Array.set t.history (i + 3) b;
  t.ev_count <- t.ev_count + 1

(* Samples enter [recent] at once and [older] once they are a window
   old, so the two windows cover adjacent spans. Runs once [recent] has
   taken the sample. *)
let[@hot] check t ~time value =
  Rolling.take_aged t.older ~now:time;
  Rolling.mean_into t.older t.means 0;
  let baseline = t.means.(0) in
  if Rolling.count t.older >= 10 && not (Float.is_nan baseline) then
    if
      value -. baseline > spike_threshold_ms
      && time -. t.last_spike_at > window_s
    then begin
      t.last_spike_at <- time;
      push_event t ~kind:ev_spike ~at:time ~a:value ~b:baseline
    end
    else begin
      Rolling.mean_into t.recent t.means 1;
      let recent_mean = t.means.(1) in
      if
        Rolling.count t.recent >= 10
        && (not (Float.is_nan recent_mean))
        && abs_float (recent_mean -. baseline) > shift_threshold_ms
        && time -. t.last_shift_at > shift_cooldown_s
      then begin
        t.last_shift_at <- time;
        push_event t ~kind:ev_shift ~at:time ~a:baseline ~b:recent_mean
      end
    end

let[@hot] update t ~time value =
  Rolling.take t.recent;
  check t ~time value

let add t ~time value =
  Rolling.add t.recent ~time value;
  check t ~time value

let window_counts t =
  (Rolling.count t.recent, Rolling.count t.older, Rolling.pending t.older)

let events t =
  List.init t.ev_count (fun e ->
      let slot k = Float.Array.get t.history ((4 * e) + k) in
      if Float.equal (slot 0) ev_spike then
        Spike { at = slot 1; value_ms = slot 2; baseline_ms = slot 3 }
      else Level_shift { at = slot 1; before_ms = slot 2; after_ms = slot 3 })
