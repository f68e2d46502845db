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
let hooked x = x + 8
let hook_unread x = x + 9
let hook_no_file x = x + 10
let hook_stale x = x + 11
let after_blank x = x + 12
