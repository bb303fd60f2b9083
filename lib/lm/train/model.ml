(* Training the language models over the embedded corpus.

   [train_bpe] builds the Comfort generator's model: BPE tokens, order-8
   context. [train_chars] builds the baseline: character tokens, order-4 —
   the same machinery with shorter modelled dependencies, standing in for
   DeepSmith's LSTM. Both run at build time (see [lib/prebuild]); the
   [lm] library holds their output and the sampling code. *)

type t = {
  tokenizer : Bpe.t;
  model : Ngram.t;
  char_level : bool;
}

let bos = -1

let train_bpe ?(order = 8) ?(n_merges = 200) (programs : string list) : t =
  let tok = Bpe.learn ~n_merges (String.concat "\n\n" programs) in
  let model = Ngram.create ~order ~bos in
  let eof = Bpe.eof_id tok in
  List.iter
    (fun p -> Ngram.add_sequence model (Bpe.encode tok p @ [ eof ]))
    programs;
  { tokenizer = tok; model; char_level = false }

let train_chars ?(order = 4) (programs : string list) : t =
  let tok = Bpe.char_tokenizer () in
  let model = Ngram.create ~order ~bos in
  (* encoding any text interns <EOF> first *)
  ignore (Bpe.encode_chars tok "");
  let eof = Bpe.eof_id tok in
  List.iter
    (fun p -> Ngram.add_sequence model (Bpe.encode_chars tok p @ [ eof ]))
    programs;
  { tokenizer = tok; model; char_level = true }
