(* The docs quote repository paths; every one must exist.  A quoted
   path is one under a source directory, or a root-level file with a
   .txt, .json, .jsonl, .md or .sh extension.  A quoted [.exe] names a
   dune executable, which exists when its [.ml] does. *)

let docs = [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ]

let path_re =
  Str.regexp
    ("`\\(\\(lib\\|bin\\|test\\|perfbench\\|examples\\)/[A-Za-z0-9_./-]*"
   ^ "\\|[A-Za-z0-9_.-]+\\.\\(txt\\|jsonl\\|json\\|md\\|sh\\)\\)`")

let quoted_paths text =
  let rec go pos acc =
    match Str.search_forward path_re text pos with
    | _ -> go (Str.match_end ()) (Str.matched_group 1 text :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let exists path =
  let path =
    if Filename.check_suffix path ".exe" then Filename.chop_suffix path ".exe" ^ ".ml"
    else path
  in
  Sys.file_exists (Filename.concat ".." path)

let test_doc doc () =
  let text = In_channel.with_open_bin (Filename.concat ".." doc) In_channel.input_all in
  let paths = quoted_paths text in
  Alcotest.(check bool) (doc ^ " quotes some paths") true (paths <> []);
  List.iter
    (fun p -> Alcotest.(check bool) (doc ^ ": " ^ p) true (exists p))
    paths

let () =
  Alcotest.run "mm_docs"
    [
      ( "docs",
        List.map
          (fun doc -> Alcotest.test_case (doc ^ " paths exist") `Quick (test_doc doc))
          docs );
    ]
