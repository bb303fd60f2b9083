(* The standard language models and sampling from them.

   [comfort] is the Comfort generator's model: BPE tokens, order-8
   context. [deepsmith] is the baseline: character tokens, order-4. Both
   are trained at build time ([Lm_train.Model], run by [lib/prebuild]),
   the way the paper trains its GPT-2 once, offline; a process only
   unmarshals them. *)

open Lm_train
include Model

let comfort : t Lazy.t = lazy (Marshal.from_string Prebuilt.comfort 0 : t)
let deepsmith : t Lazy.t = lazy (Marshal.from_string Prebuilt.deepsmith 0 : t)

let encode (t : t) (text : string) : int list =
  if t.char_level then Bpe.encode_chars t.tokenizer text
  else Bpe.encode t.tokenizer text

let decode (t : t) (ids : int list) : string = Bpe.decode t.tokenizer ids

let eof (t : t) : int = Bpe.eof_id t.tokenizer

(* Generate token ids continuing [prefix] until the predicate [stop] accepts
   the text so far, <EOF> is produced, or [max_tokens] is hit. Returns the
   full token list including the prefix. *)
let generate (t : t) (rng : Cutil.Rng.t) ~(prefix : string) ~(k : int)
    ~(max_tokens : int) ~(stop : string -> bool) : string =
  let prefix_ids = encode t prefix in
  (* [Ngram.candidates] never consults more than [order - 1] trailing
     tokens, so the generation loop keeps a bounded context window (kept
     reversed for O(1) push) instead of the full history — re-reversing
     an unbounded history per sampled token made long programs quadratic
     in their own length, which the campaign profiler surfaced as the
     bulk of the generate stage. *)
  let ctx_len = Ngram.order t.model - 1 in
  let rec take n = function
    | [] -> []
    | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl
  in
  let window =
    ref (take ctx_len (List.rev (Ngram.initial_history t.model prefix_ids)))
  in
  let acc = Buffer.create 256 in
  Buffer.add_string acc prefix;
  (* seed stateful stop predicates with the prefix; its own verdict is
     ignored, as at least one token is always sampled *)
  let (_ : bool) = stop prefix in
  let eof_id = eof t in
  let continue_ = ref true in
  let steps = ref 0 in
  while !continue_ && !steps < max_tokens do
    incr steps;
    match Ngram.sample t.model rng (List.rev !window) ~k with
    | None -> continue_ := false
    | Some tok when tok = eof_id -> continue_ := false
    | Some tok ->
        let chunk =
          match Bpe.token_of t.tokenizer tok with
          | Some s ->
              Buffer.add_string acc s;
              s
          | None -> ""
        in
        window := take ctx_len (tok :: !window);
        if stop chunk then continue_ := false
  done;
  Buffer.contents acc
