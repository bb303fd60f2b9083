(** The standard models as [Marshal] bytes, generated at build time by
    [lib/prebuild] (the module is written by a dune rule and never
    committed). {!Model.comfort} and {!Model.deepsmith} unmarshal them. *)

(** [Marshal.to_string (Model.train_bpe Js_corpus.programs) []] *)
val comfort : string

(** [Marshal.to_string (Model.train_chars Js_corpus.programs) []] *)
val deepsmith : string
