(* The benchmark's input programs.  Why each input and each weight was
   chosen is recorded in perfbench/README.md. *)

open Hpf_lang
open Hpf_benchmarks

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(** The shipped example programs, by file name. *)
let examples () : (string * string) list =
  let dir = "examples/programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hpfk")
  |> List.sort compare
  |> List.map (fun f -> (Filename.chop_suffix f ".hpfk", read_file (Filename.concat dir f)))

(** The six kernels of [bench --json], at the sizes it uses. *)
let kernels : (string * (p:int -> Ast.program)) list =
  [
    ("fig1", fun ~p -> Fig_examples.fig1 ~n:64 ~p ());
    ("fig2", fun ~p -> Fig_examples.fig2 ~n:32 ~np:p ());
    ("fig7", fun ~p -> Fig_examples.fig7 ~n:48 ~p ());
    ("tomcatv", fun ~p -> Tomcatv.program ~n:66 ~niter:1 ~p);
    ("dgefa", fun ~p -> Dgefa.program ~n:64 ~p);
    ( "appsp_2d",
      fun ~p ->
        match Hpf_mapping.Grid.factorize ~rank:2 p with
        | [ p1; p2 ] -> Appsp.program_2d ~n:18 ~niter:1 ~p1 ~p2
        | _ -> assert false );
  ]

(** [compose k p] repeats [p]'s loop phases [k] times: the body of its
    time-step loop when the body is one loop, else the whole body.  The
    result is a larger program of the same shape, whose compile cost
    grows superlinearly in [k]. *)
let compose (k : int) (p : Ast.program) : Ast.program =
  let rep l = List.concat (List.init k (fun _ -> l)) in
  let body =
    match p.Ast.body with
    | [ ({ Ast.node = Ast.Do d; _ } as s) ] ->
        [ { s with Ast.node = Ast.Do { d with Ast.body = rep d.Ast.body } } ]
    | b -> rep b
  in
  { p with Ast.pname = Printf.sprintf "%s_x%d" p.Ast.pname k; body }
