let via_alias x = x + 1
let via_open x = x + 2
let via_local_open x = x + 3

module Arg = struct
  let via_functor x = x + 4
end

let test_only x = x + 5
let own_only x = x + 6
let unreferenced x = own_only x
let waived x = x + 7
