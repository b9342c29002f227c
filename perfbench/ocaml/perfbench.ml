(* Entry point of the benchmark's OCaml half; see perfbench/README.md. *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: _ -> Gen.main (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  | _ :: "trace" :: _ -> Tracepass.main (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  | _ ->
      prerr_endline "usage: perfbench (gen|trace) [options]";
      exit 2
