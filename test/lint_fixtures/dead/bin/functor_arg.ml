module Registered = Registry.Make (Exports.Arg)
