let compare (a : Route.t) (b : Route.t) =
  let by f cmp rest = match cmp (f a) (f b) with 0 -> rest () | c -> c in
  by Route.local
    (fun x y -> Bool.compare y x)
    (fun () ->
      by
        (fun r -> r.Route.local_pref)
        (fun x y -> Int.compare y x)
        (fun () ->
          by
            (fun r -> As_path.length r.Route.path)
            Int.compare
            (fun () ->
              by
                (fun r -> r.Route.neighbor_weight)
                (fun x y -> Int.compare y x)
                (fun () ->
                  by
                    (fun r -> Route.origin_rank r.Route.origin)
                    Int.compare
                    (fun () -> Int.compare a.Route.next_hop b.Route.next_hop)))))

let best = function
  | [] -> None
  | candidates -> Some (List.fold_left (fun acc r -> if compare r acc < 0 then r else acc) (List.hd candidates) candidates)

let rank candidates = List.sort compare candidates
