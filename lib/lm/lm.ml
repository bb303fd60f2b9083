(* The language-model layer. Training lives in [Lm_train], a library of
   its own so that the build-time generator can link it without this one,
   which embeds the generator's output; its modules are re-exported here
   under their usual paths. *)

module Bpe = Lm_train.Bpe
module Ngram = Lm_train.Ngram
module Js_corpus = Lm_train.Js_corpus
module Model = Model
module Prebuilt = Prebuilt
