(* The specification layer. Extraction lives in [Specdb_parse], a library
   of its own so that the build-time generator can link it without this
   one, which embeds the generator's output; its modules are re-exported
   here under their usual paths. *)

module Spec_ast = Specdb_parse.Spec_ast
module Spec_parser = Specdb_parse.Spec_parser
module Ecma_corpus = Specdb_parse.Ecma_corpus
module Db = Db
module Prebuilt = Prebuilt
