(** Training the language models over the embedded JS corpus.

    {!train_bpe} builds the Comfort generator's model: BPE tokens with an
    order-8 back-off context — the GPT-2 substitute (see DESIGN.md).
    {!train_chars} builds the baseline: character tokens with an order-4
    context, standing in for DeepSmith's LSTM. The longer modelled context
    is what reproduces the paper's syntactic-validity gap (Fig. 9).

    The standard models are trained once, at build time, by
    [lib/prebuild]; [Lm.Model] holds them and samples from them. *)

type t = {
  tokenizer : Bpe.t;
  model : Ngram.t;
  char_level : bool;
}

val train_bpe : ?order:int -> ?n_merges:int -> string list -> t
val train_chars : ?order:int -> string list -> t
