(** The structured specification database: [Specdb_parse.Db] plus the
    standard database. *)

include module type of struct
  include Specdb_parse.Db
end

(** The standard database: the embedded ECMA-262 corpus parsed at build
    time and unmarshalled from {!Prebuilt} on first use. It equals
    [build (Spec_parser.parse_document Ecma_corpus.text)]. *)
val standard : t Lazy.t
