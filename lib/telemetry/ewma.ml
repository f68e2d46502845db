(* An all-float record is stored flat, so updating [value] boxes
   nothing; the "initialized" flag is held as a float (0 or 1) to keep
   the record all-float. *)
type t = { alpha : float; mutable value : float; mutable initialized : float }

let create ~alpha =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha outside (0,1]";
  { alpha; value = nan; initialized = 0.0 }

let add t x =
  if t.initialized > 0.0 then
    t.value <- (t.alpha *. x) +. ((1.0 -. t.alpha) *. t.value)
  else begin
    t.value <- x;
    t.initialized <- 1.0
  end

let value t = t.value
