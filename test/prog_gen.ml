(* Program generators shared by the suites.  The random generator
   (test_props, test_flow): a fixed set of declarations on a random 1-D
   or 2-D machine, random expressions/statements over them, in one or
   two loops — depth-bounded so programs stay readable in
   counterexamples.  [compose] grows a kernel into a larger program of
   the same shape, and [examples] reads the shipped programs. *)

open Hpf_lang

let scalars = [ "x"; "y"; "z" ]
let arrays1 = [ "a"; "b" ]  (* rank 1, extent 8, a distributed *)
let n_extent = 8

let gen_var = QCheck2.Gen.oneofl scalars
let gen_arr = QCheck2.Gen.oneofl arrays1

(* expressions valid inside loops with indices [idxs] (outermost
   first); rank-2 references to "m" appear when two indices are
   available *)
let gen_expr ~idxs : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = List.hd idxs in
  let array_leafs =
    map (fun a -> Ast.Arr (a, [ Ast.Var idx ])) gen_arr
    ::
    (match idxs with
    | [ i1; i2 ] ->
        [ return (Ast.Arr ("m", [ Ast.Var i1; Ast.Var i2 ])) ]
    | _ -> [])
  in
  sized @@ fix (fun self size ->
      let leaf =
        oneof
          ([
             map (fun n -> Ast.Int n) (int_range 0 5);
             map (fun f -> Ast.Real (float_of_int f /. 4.0)) (int_range 0 16);
             map (fun v -> Ast.Var v) gen_var;
             oneofl (List.map (fun i -> Ast.Var i) idxs);
           ]
          @ array_leafs)
      in
      if size <= 1 then leaf
      else
        oneof
          [
            leaf;
            map3
              (fun op l r -> Ast.Bin (op, l, r))
              (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
              (self (size / 2))
              (self (size / 2));
            map (fun e -> Ast.Un (Ast.Neg, e)) (self (size - 1));
            map2 (fun l r -> Ast.Intrin (Ast.Max2, l, r)) (self (size / 2))
              (self (size / 2));
          ])

let gen_cond ~idxs : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  map3
    (fun op l r -> Ast.Bin (op, l, r))
    (oneofl [ Ast.Lt; Ast.Gt; Ast.Le; Ast.Ne ])
    (gen_expr ~idxs) (gen_expr ~idxs)

let gen_stmt ~idxs : Ast.stmt QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = List.hd idxs in
  let assign_leafs =
    [
      map2 (fun v e -> Ast.mk (Ast.Assign (Ast.LVar v, e))) gen_var
        (gen_expr ~idxs);
      map2
        (fun a e -> Ast.mk (Ast.Assign (Ast.LArr (a, [ Ast.Var idx ]), e)))
        gen_arr (gen_expr ~idxs);
    ]
    @
    (match idxs with
    | [ i1; i2 ] ->
        [
          map
            (fun e ->
              Ast.mk
                (Ast.Assign
                   (Ast.LArr ("m", [ Ast.Var i1; Ast.Var i2 ]), e)))
            (gen_expr ~idxs);
        ]
    | _ -> [])
  in
  sized @@ fix (fun self size ->
      let assign = oneof assign_leafs in
      if size <= 1 then assign
      else
        oneof
          [
            assign;
            map3
              (fun c t e -> Ast.mk (Ast.If (c, [ t ], [ e ])))
              (gen_cond ~idxs) (self (size / 2)) (self (size / 2));
          ])

let gen_program : Ast.program QCheck2.Gen.t =
  let open QCheck2.Gen in
  let decls =
    List.map (fun v -> { Ast.dname = v; ty = Types.TReal; shape = [] }) scalars
    @ List.map
        (fun a ->
          {
            Ast.dname = a;
            ty = Types.TReal;
            shape = [ Types.bounds 1 n_extent ];
          })
        arrays1
    @ [
        {
          Ast.dname = "m";
          ty = Types.TReal;
          shape = [ Types.bounds 1 n_extent; Types.bounds 1 n_extent ];
        };
      ]
  in
  (* vary the machine: 1-D and 2-D grids of several sizes *)
  let* extents = oneofl [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 2; 2 ]; [ 3; 2 ] ] in
  let* m_fmt = oneofl [ Ast.Block; Ast.Cyclic ] in
  let directives =
    [
      Ast.Processors
        { grid = "p"; extents = List.map (fun e -> Ast.Int e) extents };
      Ast.Distribute { array = "a"; fmts = [ Ast.Block ]; onto = Some "p" };
      Ast.Align
        {
          alignee = "b";
          target = "a";
          subs = [ Ast.A_dim { dum = 0; stride = 1; offset = 0 } ];
        };
    ]
    @
    (if List.length extents = 2 then
       [
         Ast.Distribute
           { array = "m"; fmts = [ m_fmt; Ast.Block ]; onto = Some "p" };
       ]
     else [ Ast.Distribute { array = "m"; fmts = [ m_fmt; Ast.Star ]; onto = Some "p" } ])
  in
  let* body_stmts = list_size (int_range 1 4) (gen_stmt ~idxs:[ "i" ]) in
  let* inner_stmts =
    list_size (int_range 1 3) (gen_stmt ~idxs:[ "i"; "j" ])
  in
  let inner_loop =
    Ast.mk
      (Ast.Do
         {
           index = "j";
           lo = Ast.Int 1;
           hi = Ast.Int n_extent;
           step = Ast.Int 1;
           body = inner_stmts;
           independent = false;
           new_vars = [];
           loop_name = None;
         })
  in
  let* with_inner = bool in
  let body_stmts =
    if with_inner then body_stmts @ [ inner_loop ] else body_stmts
  in
  let* pre = list_size (int_range 0 2) (gen_stmt ~idxs:[ "i" ]) in
  (* pre-loop statements must not use the loop index: replace it *)
  let rec scrub_expr (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Var "i" -> Ast.Int 1
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Var _ -> e
    | Ast.Arr (a, subs) -> Ast.Arr (a, List.map scrub_expr subs)
    | Ast.Bin (op, a, b) -> Ast.Bin (op, scrub_expr a, scrub_expr b)
    | Ast.Un (op, a) -> Ast.Un (op, scrub_expr a)
    | Ast.Intrin (op, a, b) -> Ast.Intrin (op, scrub_expr a, scrub_expr b)
  in
  let rec scrub (s : Ast.stmt) : Ast.stmt =
    match s.Ast.node with
    | Ast.Assign (Ast.LVar v, e) ->
        Ast.mk (Ast.Assign (Ast.LVar v, scrub_expr e))
    | Ast.Assign (Ast.LArr (a, subs), e) ->
        Ast.mk (Ast.Assign (Ast.LArr (a, List.map scrub_expr subs), scrub_expr e))
    | Ast.If (c, t, e) ->
        Ast.mk (Ast.If (scrub_expr c, List.map scrub t, List.map scrub e))
    | Ast.Do _ | Ast.Exit _ | Ast.Cycle _ -> s
  in
  let body =
    List.map scrub pre
    @ [
        Ast.mk
          (Ast.Do
             {
               index = "i";
               lo = Ast.Int 1;
               hi = Ast.Int n_extent;
               step = Ast.Int 1;
               body = body_stmts;
               independent = false;
               new_vars = [];
               loop_name = None;
             });
      ]
  in
  return
    {
      Ast.pname = "randprog";
      params = [];
      decls;
      directives;
      body;
    }

let gen_checked_program =
  QCheck2.Gen.map Sema.check gen_program

(* [compose k p] repeats the body of [p]'s time-step loop [k] times (the
   whole body when it is not one loop), reparsed so every statement gets
   a fresh id. *)
let compose k (p : Ast.program) : Ast.program =
  let rep l = List.concat (List.init k (fun _ -> l)) in
  let body =
    match p.Ast.body with
    | [ ({ Ast.node = Ast.Do d; _ } as s) ] ->
        [ { s with Ast.node = Ast.Do { d with Ast.body = rep d.Ast.body } } ]
    | b -> rep b
  in
  Sema.check (Parser.parse_string (Pp.program_to_string { p with Ast.body }))

(* The shipped example programs, checked, by file name. *)
let examples () : (string * Ast.program) list =
  let dir =
    List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hpfk")
  |> List.sort compare
  |> List.map (fun f ->
         ( Filename.chop_suffix f ".hpfk",
           Sema.check
             (Parser.parse_string
                (In_channel.with_open_bin (Filename.concat dir f)
                   In_channel.input_all)) ))
