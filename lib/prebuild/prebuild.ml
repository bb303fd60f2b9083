(* Writes the OCaml module that holds a layer's standard artefacts as
   [Marshal] bytes in string literals, so that no process trains or parses
   them at run time:

     prebuild.exe lm      -> Lm.Prebuilt (the Comfort and DeepSmith models)
     prebuild.exe specdb  -> Specdb.Prebuilt (the standard spec database)

   Marshal is safe here: the bytes and the code that reads them come from
   the same compiler in the same build. *)

let emit (bindings : (string * string) list) =
  print_endline "(* Generated by lib/prebuild at build time. Do not edit. *)";
  List.iter (fun (name, bytes) -> Printf.printf "\nlet %s = %S\n" name bytes) bindings

let () =
  match Sys.argv with
  | [| _; "lm" |] ->
      let open Lm_train in
      emit
        [
          ("comfort", Marshal.to_string (Model.train_bpe Js_corpus.programs) []);
          ("deepsmith", Marshal.to_string (Model.train_chars Js_corpus.programs) []);
        ]
  | [| _; "specdb" |] ->
      let open Specdb_parse in
      emit
        [
          ( "standard",
            Marshal.to_string
              (Db.build (Spec_parser.parse_document Ecma_corpus.text))
              [] );
        ]
  | _ ->
      prerr_endline "usage: prebuild.exe lm|specdb";
      exit 2
