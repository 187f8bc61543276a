type t = unit

let default = ()
