(* The structured specification database, with the standard one made by
   [lib/prebuild] when this library is built and unmarshalled on first
   use. *)

include Specdb_parse.Db

let standard : t Lazy.t = lazy (Marshal.from_string Prebuilt.standard 0 : t)
