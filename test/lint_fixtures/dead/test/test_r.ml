module Old_r = struct
  let f x = x + 1
end

module Copy = struct
  module R = Old_r

  let g = R.f
end

let () = assert (R.f 0 = Copy.g 0)
