(** The standard database as [Marshal] bytes, generated at build time by
    [lib/prebuild] (the module is written by a dune rule and never
    committed). {!Db.standard} unmarshals it. *)

(** [Marshal.to_string (Db.build (Spec_parser.parse_document
    Ecma_corpus.text)) []] *)
val standard : string
