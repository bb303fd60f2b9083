(** The standard language models and sampling from them.

    {!comfort} is the Comfort generator's model: BPE tokens with an order-8
    back-off context — the GPT-2 substitute (see DESIGN.md). {!deepsmith}
    is the baseline: character tokens with an order-4 context, standing in
    for DeepSmith's LSTM. The type and the trainers are re-exported from
    [Lm_train.Model]. *)

include module type of struct
  include Lm_train.Model
end

(** The standard models, trained on [Js_corpus.programs] at build time
    (as the paper trains its GPT-2 once, offline) and unmarshalled from
    {!Prebuilt} on first use. They are equal to
    [train_bpe Js_corpus.programs] and [train_chars Js_corpus.programs]. *)
val comfort : t Lazy.t
val deepsmith : t Lazy.t

val encode : t -> string -> int list
val decode : t -> int list -> string
val eof : t -> int

(** Sample a continuation of [prefix] with top-[k] sampling until [stop]
    accepts, [<EOF>] is produced, or [max_tokens] is hit. [stop] is an
    {e incremental} predicate: it is called once on the prefix (verdict
    ignored — at least one token is always sampled) and then once per
    appended chunk, so a stateful predicate sees the whole text exactly
    once where a whole-string rescan per token would be quadratic. Build
    a fresh predicate per call (e.g. the generator's [brace_stop ()]). *)
val generate :
  t ->
  Cutil.Rng.t ->
  prefix:string ->
  k:int ->
  max_tokens:int ->
  stop:(string -> bool) ->
  string
