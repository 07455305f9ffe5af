(** Deterministic seeding of program memory for simulations and
    validation runs.

    Every array element gets a value derived from a hash of its name and
    index vector, so any stale or misplaced element is distinguishable;
    declared scalars keep their zero initialization (programs are
    expected to define them before use). *)

open Hpf_lang

(** A small deterministic mixer (no Random: runs must be reproducible).
    Shared by the fault-injection schedule ({!Fault}) and the message
    checksums ({!Msg}) so every derived decision is seed-stable. *)
let mix_step (acc : int) (x : int) : int =
  let acc = acc lxor (x + 0x9e3779b9 + (acc lsl 6) + (acc lsr 2)) in
  acc land 0x3FFFFFFF

let mix (seed : int) (xs : int list) : int = List.fold_left mix_step seed xs

let hash_name (s : string) : int =
  String.fold_left (fun acc c -> mix_step acc (Char.code c)) 17 s

(** Fill every declared array with deterministic values.  Reals land in
    (0, 2); integers in [1, 8] (safe as subscript offsets is {e not}
    guaranteed — integer arrays used as subscripts should be written by
    the program).  Elements are visited in storage order with one
    reused index vector. *)
let seed ?(seed = 42) (prog : Ast.program) (m : Memory.t) : unit =
  List.iter
    (fun (d : Ast.decl) ->
      if d.shape <> [] then begin
        let h0 = mix seed [ hash_name d.dname ] in
        Memory.fill m d.dname (fun idx ->
            let h = Array.fold_left mix_step h0 idx in
            match d.ty with
            | Types.TInt -> Value.I (1 + (h mod 8))
            | Types.TReal ->
                Value.R (0.0625 +. (float_of_int (h land 0xFFFF) /. 32768.0))
            | Types.TBool -> Value.B (h land 1 = 1))
      end)
    prog.decls

(** An [init] function for {!Seq_interp.run} / {!Spmd_interp.run}. *)
let init ?seed:(s = 42) (prog : Ast.program) : Memory.t -> unit =
 fun m -> seed ~seed:s prog m
