(* minic code generation: AST -> BERI/CHERI assembly text.

   One code generator, three pointer-lowering strategies (Layout.mode):

     Legacy    pointer = GPR holding an address; ld/sd, no checks.
     Cheri     pointer = capability register; CIncBase/CSetLen at
               allocation, CLC/CSC/CLx/CSx for accesses — all checking
               implicit (Section 5.1).
     Softcheck pointer = (addr, base, end) GPR triple, 24 bytes in
               memory; explicit compare-and-branch checks before each
               dereference (the CCured stand-in of Section 8).

   Code generation is deliberately simple (no register allocation across
   statements, no scheduling): both compared configurations flow through
   the same generator, so its naivety cancels out of relative overheads —
   the property the Figure 4 reproduction needs. *)

open Ast

exception Error of string

let err fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

(* --- machine values ------------------------------------------------------- *)

type value =
  | VInt of string (* register name holding an integer *)
  | VPtr of string (* legacy pointer: address in a GPR *)
  | VCap of string (* cheri pointer: capability register *)
  | VFat of string * string * string (* softcheck: addr, base, end *)

type env = {
  layout : Layout.t;
  buf : Buffer.t;
  mutable label_id : int;
  mutable gpr_free : string list;
  mutable cap_free : string list;
  (* name -> (frame offset, type) *)
  mutable locals : (string * (int * ty)) list;
  mutable frame_size : int;
  globals : (string, ty) Hashtbl.t;
  funcs : (string, ty * ty list) Hashtbl.t;
  structs_of_ptr : unit; (* placeholder to keep the record non-trivial *)
  mutable current_fn : string;
}

(* Temporaries must not alias the argument registers: $t4..$t7 are the
   o32 names for $a4..$a7, so they are excluded.  $k0/$k1/$gp are free for
   user code in this system (the kernel is a native model and the ABI has
   no global pointer), and $v1 doubles as a temporary outside call
   boundaries. *)
let temp_gprs =
  [ "$t0"; "$t1"; "$t2"; "$t3"; "$t8"; "$s0"; "$s1"; "$s2"; "$s3"; "$v1"; "$k0"; "$k1"; "$gp" ]
let temp_caps = [ "$c3"; "$c4"; "$c5"; "$c6"; "$c7"; "$c8"; "$c9"; "$c10" ]
let int_args = [ "$a0"; "$a1"; "$a2"; "$a3"; "$a4"; "$a5"; "$a6"; "$a7" ]

let emit env fmt = Fmt.kstr (fun s -> Buffer.add_string env.buf ("  " ^ s ^ "\n")) fmt
let emit_label env l = Buffer.add_string env.buf (l ^ ":\n")

let fresh_label env prefix =
  env.label_id <- env.label_id + 1;
  Printf.sprintf "__%s_%d" prefix env.label_id

let alloc_gpr env =
  match env.gpr_free with
  | r :: rest ->
      env.gpr_free <- rest;
      r
  | [] -> err "expression too complex: out of temporary registers (in %s)" env.current_fn

let alloc_cap env =
  match env.cap_free with
  | r :: rest ->
      env.cap_free <- rest;
      r
  | [] -> err "expression too complex: out of capability registers (in %s)" env.current_fn

let free_reg env r =
  if List.mem r temp_gprs && not (List.mem r env.gpr_free) then
    env.gpr_free <- r :: env.gpr_free

let free_cap env c =
  if List.mem c temp_caps && not (List.mem c env.cap_free) then
    env.cap_free <- c :: env.cap_free

let free_value env = function
  | VInt r | VPtr r -> free_reg env r
  | VCap c -> free_cap env c
  | VFat (a, b, e) ->
      free_reg env a;
      free_reg env b;
      free_reg env e

(* --- typing --------------------------------------------------------------- *)

let rec type_of env e =
  match e with
  | Int _ -> Tint
  | Null -> Tptr Tvoid
  | Sizeof _ -> Tint
  | Var name -> (
      match List.assoc_opt name env.locals with
      | Some (_, ty) -> ty
      | None -> (
          match Hashtbl.find_opt env.globals name with
          | Some ty -> ty
          | None -> err "unknown variable %s" name))
  | Binop ((Add | Sub), a, b) -> (
      match (type_of env a, type_of env b) with
      | (Tptr _ as p), _ -> p
      | _, (Tptr _ as p) -> p
      | _ -> Tint)
  | Binop _ -> Tint
  | Unop _ -> Tint
  | Call (name, _) -> (
      match name with
      | "malloc" -> Tptr Tvoid
      | "free" | "print_int" | "print_char" | "phase_begin" | "phase_end" | "exit" -> Tvoid
      | "random" | "cycles" | "instret" -> Tint
      | _ -> (
          match Hashtbl.find_opt env.funcs name with
          | Some (ret, _) -> ret
          | None -> err "unknown function %s" name))
  | Field (b, f) -> (
      match type_of env b with
      | Tptr (Tstruct s) -> snd (Layout.field env.layout s f)
      | ty -> err "-> applied to non-struct-pointer (%a)" Ast.pp_ty ty)
  | Addr_field (b, f) -> (
      match type_of env b with
      | Tptr (Tstruct s) -> Tptr (snd (Layout.field env.layout s f))
      | ty -> err "&-> applied to non-struct-pointer (%a)" Ast.pp_ty ty)
  | Index (b, _) -> (
      match type_of env b with
      | Tptr elem -> elem
      | ty -> err "indexing non-pointer (%a)" Ast.pp_ty ty)
  | Cast (ty, _) -> ty

let is_ptr_ty = function Tptr _ -> true | _ -> false

let elem_size env = function
  | Tptr Tvoid -> 1
  | Tptr elem -> Layout.sizeof env.layout elem
  | ty -> err "element size of non-pointer %a" Ast.pp_ty ty

(* --- frame handling -------------------------------------------------------- *)

let mode env = env.layout.Layout.mode

(* Reserve a frame slot for a type; returns its offset from $fp. *)
let frame_slot env ty =
  let size, align =
    match ty with
    | Tptr _ -> (Layout.ptr_size (mode env), Layout.ptr_align (mode env))
    | _ -> (8, 8)
  in
  let off = Layout.align_to env.frame_size align in
  env.frame_size <- off + size;
  off

(* --- null and moves --------------------------------------------------------- *)

(* Materialize a null pointer value. *)
let null_value env =
  match mode env with
  | Layout.Legacy ->
      let r = alloc_gpr env in
      emit env "move %s, $zero" r;
      VPtr r
  | Layout.Cheri | Layout.Cheri128 ->
      let c = alloc_cap env in
      emit env "cfromptr %s, $c0, $zero" c;
      VCap c
  | Layout.Softcheck ->
      let a = alloc_gpr env and b = alloc_gpr env and e = alloc_gpr env in
      emit env "move %s, $zero" a;
      emit env "move %s, $zero" b;
      emit env "move %s, $zero" e;
      VFat (a, b, e)

(* Coerce Null literals (typed Tptr Tvoid) into the representation used by
   the context. *)
let as_int = function
  | VInt r | VPtr r -> r
  | VFat (a, _, _) -> a
  | VCap _ -> err "capability used as integer"

(* --- loads and stores through pointer values --------------------------------- *)

(* Emit a bounds check for [addr_reg, addr_reg+size) within [base, end). *)
let softcheck_bounds env ~addr ~base ~end_ ~size =
  let tmp = alloc_gpr env in
  emit env "sltu $at, %s, %s" addr base;
  emit env "bnez $at, __bounds_fail";
  emit env "daddiu %s, %s, %d" tmp addr size;
  emit env "sltu $at, %s, %s" end_ tmp;
  emit env "bnez $at, __bounds_fail";
  free_reg env tmp

(* Load a scalar (int) of 8 bytes at [ptr + offset_reg? + imm]. *)
let load_int env ptr ~imm ~(index : string option) =
  let dst = alloc_gpr env in
  (match (ptr, mode env) with
  | VPtr p, (Layout.Legacy | Layout.Softcheck) -> (
      match index with
      | None -> emit env "ld %s, %d(%s)" dst imm p
      | Some idx ->
          emit env "daddu $at, %s, %s" p idx;
          emit env "ld %s, %d($at)" dst imm)
  | VFat (a, b, e), _ ->
      let addr = alloc_gpr env in
      (match index with
      | None -> emit env "daddiu %s, %s, %d" addr a imm
      | Some idx ->
          emit env "daddu %s, %s, %s" addr a idx;
          if imm <> 0 then emit env "daddiu %s, %s, %d" addr addr imm);
      softcheck_bounds env ~addr ~base:b ~end_:e ~size:8;
      emit env "ld %s, 0(%s)" dst addr;
      free_reg env addr
  | VPtr _, (Layout.Cheri | Layout.Cheri128) -> err "cheri mode: raw pointer dereference"
  | VCap c, _ -> (
      match index with
      | None ->
          if imm >= -128 && imm < 128 then emit env "cld %s, $zero, %d(%s)" dst imm c
          else begin
            emit env "li $at, %d" imm;
            emit env "cld %s, $at, 0(%s)" dst c
          end
      | Some idx ->
          if imm = 0 then emit env "cld %s, %s, 0(%s)" dst idx c
          else begin
            emit env "daddiu $at, %s, %d" idx imm;
            emit env "cld %s, $at, 0(%s)" dst c
          end)
  | VInt _, _ -> err "dereferencing an integer");
  VInt dst

let store_int env ptr ~imm ~(index : string option) src =
  match (ptr, mode env) with
  | VPtr p, (Layout.Legacy | Layout.Softcheck) -> (
      match index with
      | None -> emit env "sd %s, %d(%s)" src imm p
      | Some idx ->
          emit env "daddu $at, %s, %s" p idx;
          emit env "sd %s, %d($at)" src imm)
  | VFat (a, b, e), _ ->
      let addr = alloc_gpr env in
      (match index with
      | None -> emit env "daddiu %s, %s, %d" addr a imm
      | Some idx ->
          emit env "daddu %s, %s, %s" addr a idx;
          if imm <> 0 then emit env "daddiu %s, %s, %d" addr addr imm);
      softcheck_bounds env ~addr ~base:b ~end_:e ~size:8;
      emit env "sd %s, 0(%s)" src addr;
      free_reg env addr
  | VPtr _, (Layout.Cheri | Layout.Cheri128) -> err "cheri mode: raw pointer store"
  | VCap c, _ -> (
      match index with
      | None ->
          if imm >= -128 && imm < 128 then emit env "csd %s, $zero, %d(%s)" src imm c
          else begin
            emit env "li $at, %d" imm;
            emit env "csd %s, $at, 0(%s)" src c
          end
      | Some idx ->
          if imm = 0 then emit env "csd %s, %s, 0(%s)" src idx c
          else begin
            emit env "daddiu $at, %s, %d" idx imm;
            emit env "csd %s, $at, 0(%s)" src c
          end)
  | VInt _, _ -> err "storing through an integer"

(* Load a pointer-typed field at [ptr + imm (+index)].  The loaded pointer's
   bounds, under softcheck, come from its 24-byte home. *)
let load_ptr env ptr ~imm ~(index : string option) =
  match mode env with
  | Layout.Legacy -> ( match load_int env ptr ~imm ~index with VInt r -> VPtr r | v -> v)
  | Layout.Softcheck -> (
      match ptr with
      | VFat (pa, pb, pe) ->
          (* CCured-style coalescing: one 24-byte bounds check covers the
             three component loads. *)
          let addr = alloc_gpr env in
          (match index with
          | None -> emit env "daddiu %s, %s, %d" addr pa imm
          | Some idx ->
              emit env "daddu %s, %s, %s" addr pa idx;
              if imm <> 0 then emit env "daddiu %s, %s, %d" addr addr imm);
          softcheck_bounds env ~addr ~base:pb ~end_:pe ~size:24;
          let a = alloc_gpr env and b = alloc_gpr env and e = alloc_gpr env in
          emit env "ld %s, 0(%s)" a addr;
          emit env "ld %s, 8(%s)" b addr;
          emit env "ld %s, 16(%s)" e addr;
          free_reg env addr;
          VFat (a, b, e)
      | _ ->
          let a = as_int (load_int env ptr ~imm ~index) in
          let b = as_int (load_int env ptr ~imm:(imm + 8) ~index) in
          let e = as_int (load_int env ptr ~imm:(imm + 16) ~index) in
          VFat (a, b, e))
  | Layout.Cheri | Layout.Cheri128 -> (
      match ptr with
      | VCap c ->
          let dst = alloc_cap env in
          (match index with
          | None ->
              if imm mod 16 = 0 && imm >= -16384 && imm < 16384 then
                emit env "clc %s, $zero, %d(%s)" dst imm c
              else begin
                emit env "li $at, %d" imm;
                emit env "clc %s, $at, 0(%s)" dst c
              end
          | Some idx ->
              if imm = 0 then emit env "clc %s, %s, 0(%s)" dst idx c
              else begin
                emit env "daddiu $at, %s, %d" idx imm;
                emit env "clc %s, $at, 0(%s)" dst c
              end);
          VCap dst
      | _ -> err "cheri mode: pointer not in capability register")

let store_ptr env ptr ~imm ~(index : string option) (v : value) =
  match (mode env, v) with
  | Layout.Legacy, (VPtr r | VInt r) -> store_int env ptr ~imm ~index r
  | Layout.Softcheck, VFat (a, b, e) -> (
      match ptr with
      | VFat (pa, pb, pe) ->
          (* one coalesced 24-byte check for the three component stores *)
          let addr = alloc_gpr env in
          (match index with
          | None -> emit env "daddiu %s, %s, %d" addr pa imm
          | Some idx ->
              emit env "daddu %s, %s, %s" addr pa idx;
              if imm <> 0 then emit env "daddiu %s, %s, %d" addr addr imm);
          softcheck_bounds env ~addr ~base:pb ~end_:pe ~size:24;
          emit env "sd %s, 0(%s)" a addr;
          emit env "sd %s, 8(%s)" b addr;
          emit env "sd %s, 16(%s)" e addr;
          free_reg env addr
      | _ ->
          store_int env ptr ~imm ~index a;
          store_int env ptr ~imm:(imm + 8) ~index b;
          store_int env ptr ~imm:(imm + 16) ~index e)
  | (Layout.Cheri | Layout.Cheri128), VCap src -> (
      match ptr with
      | VCap c -> (
          match index with
          | None ->
              if imm mod 16 = 0 && imm >= -16384 && imm < 16384 then
                emit env "csc %s, $zero, %d(%s)" src imm c
              else begin
                emit env "li $at, %d" imm;
                emit env "csc %s, $at, 0(%s)" src c
              end
          | Some idx ->
              if imm = 0 then emit env "csc %s, %s, 0(%s)" src idx c
              else begin
                emit env "daddiu $at, %s, %d" idx imm;
                emit env "csc %s, $at, 0(%s)" src c
              end)
      | _ -> err "cheri mode: pointer not in capability register")
  | _, _ -> err "pointer store representation mismatch"

(* --- local variable access ---------------------------------------------------- *)

let read_local env name =
  match List.assoc_opt name env.locals with
  | None -> None
  | Some (off, ty) ->
      Some
        (match (ty, mode env) with
        | Tptr _, Layout.Legacy ->
            let r = alloc_gpr env in
            emit env "ld %s, %d($fp)" r off;
            VPtr r
        | Tptr _, Layout.Softcheck ->
            let a = alloc_gpr env and b = alloc_gpr env and e = alloc_gpr env in
            emit env "ld %s, %d($fp)" a off;
            emit env "ld %s, %d($fp)" b (off + 8);
            emit env "ld %s, %d($fp)" e (off + 16);
            VFat (a, b, e)
        | Tptr _, (Layout.Cheri | Layout.Cheri128) ->
            let c = alloc_cap env in
            (* frame slots for capabilities are 32-aligned, so the scaled
               CLC immediate addresses them in one instruction *)
            emit env "clc %s, $fp, %d($c0)" c off;
            VCap c
        | _, _ ->
            let r = alloc_gpr env in
            emit env "ld %s, %d($fp)" r off;
            VInt r)

let write_local env name (v : value) =
  match List.assoc_opt name env.locals with
  | None -> err "unknown local %s" name
  | Some (off, ty) -> (
      match (ty, v, mode env) with
      | Tptr _, VFat (a, b, e), Layout.Softcheck ->
          emit env "sd %s, %d($fp)" a off;
          emit env "sd %s, %d($fp)" b (off + 8);
          emit env "sd %s, %d($fp)" e (off + 16)
      | Tptr _, VCap c, (Layout.Cheri | Layout.Cheri128) ->
          emit env "csc %s, $fp, %d($c0)" c off
      | _, (VInt r | VPtr r), _ -> emit env "sd %s, %d($fp)" r off
      | _ -> err "representation mismatch storing %s" name)

(* --- global variable access ----------------------------------------------------- *)

let global_label name = "g_" ^ name

let read_global env name ty =
  match (ty, mode env) with
  | Tptr _, Layout.Legacy ->
      let r = alloc_gpr env in
      emit env "la $at, %s" (global_label name);
      emit env "ld %s, 0($at)" r;
      VPtr r
  | Tptr _, Layout.Softcheck ->
      let a = alloc_gpr env and b = alloc_gpr env and e = alloc_gpr env in
      emit env "la $at, %s" (global_label name);
      emit env "ld %s, 0($at)" a;
      emit env "ld %s, 8($at)" b;
      emit env "ld %s, 16($at)" e;
      VFat (a, b, e)
  | Tptr _, (Layout.Cheri | Layout.Cheri128) ->
      let c = alloc_cap env in
      emit env "la $at, %s" (global_label name);
      emit env "clc %s, $at, 0($c0)" c;
      VCap c
  | _, _ ->
      let r = alloc_gpr env in
      emit env "la $at, %s" (global_label name);
      emit env "ld %s, 0($at)" r;
      VInt r

let write_global env name ty v =
  match (ty, v, mode env) with
  | Tptr _, VFat (a, b, e), Layout.Softcheck ->
      emit env "la $at, %s" (global_label name);
      emit env "sd %s, 0($at)" a;
      emit env "sd %s, 8($at)" b;
      emit env "sd %s, 16($at)" e
  | Tptr _, VCap c, (Layout.Cheri | Layout.Cheri128) ->
      emit env "la $at, %s" (global_label name);
      emit env "csc %s, $at, 0($c0)" c
  | _, (VInt r | VPtr r), _ ->
      emit env "la $at, %s" (global_label name);
      emit env "sd %s, 0($at)" r
  | _ -> err "representation mismatch storing global %s" name

(* Registers currently in use (allocated from the pools). *)
let live_temps env =
  let gprs = List.filter (fun r -> not (List.mem r env.gpr_free)) temp_gprs in
  let caps = List.filter (fun c -> not (List.mem c env.cap_free)) temp_caps in
  (gprs, caps)

let save_live_except env ~gprs:exclude_gprs ~caps:exclude_caps =
  let gprs, caps = live_temps env in
  let gprs = List.filter (fun r -> not (List.mem r exclude_gprs)) gprs in
  let caps = List.filter (fun c -> not (List.mem c exclude_caps)) caps in
  List.iter (fun r -> emit env "daddiu $sp, $sp, -32"; emit env "sd %s, 0($sp)" r) gprs;
  List.iter (fun c -> emit env "daddiu $sp, $sp, -32"; emit env "csc %s, $sp, 0($c0)" c) caps;
  (gprs, caps)

let save_live env =
  let gprs, caps = live_temps env in
  List.iter (fun r -> emit env "daddiu $sp, $sp, -32"; emit env "sd %s, 0($sp)" r) gprs;
  List.iter (fun c -> emit env "daddiu $sp, $sp, -32"; emit env "csc %s, $sp, 0($c0)" c) caps;
  (gprs, caps)

let restore_live env (gprs, caps) =
  List.iter
    (fun c -> emit env "clc %s, $sp, 0($c0)" c; emit env "daddiu $sp, $sp, 32")
    (List.rev caps);
  List.iter
    (fun r -> emit env "ld %s, 0($sp)" r; emit env "daddiu $sp, $sp, 32")
    (List.rev gprs);
  (* Re-mark them as allocated: remove from free lists. *)
  env.gpr_free <- List.filter (fun r -> not (List.mem r gprs)) env.gpr_free;
  env.cap_free <- List.filter (fun c -> not (List.mem c caps)) env.cap_free

(* --- argument passing ---------------------------------------------------------------- *)

(* Registers consumed by a parameter list, in order. *)
let arg_slots env (param_tys : ty list) =
  let rec go tys ints caps acc =
    match tys with
    | [] -> List.rev acc
    | ty :: rest -> (
        match (ty, mode env) with
        | Tptr _, (Layout.Cheri | Layout.Cheri128) -> (
            match caps with
            | c :: caps' -> go rest ints caps' (`Cap c :: acc)
            | [] -> err "too many capability arguments")
        | Tptr _, Layout.Softcheck -> (
            match ints with
            | a :: b :: c :: ints' -> go rest ints' caps (`Fat (a, b, c) :: acc)
            | _ -> err "too many fat-pointer arguments")
        | _, _ -> (
            match ints with
            | a :: ints' -> go rest ints' caps (`Int a :: acc)
            | [] -> err "too many integer arguments"))
  in
  go param_tys int_args [ "$c3"; "$c4"; "$c5"; "$c6"; "$c7"; "$c8" ] []

(* --- expression code generation --------------------------------------------------------- *)

(* Convert a pointer value to a plain integer (its address) for equality
   and ordering; untagged capabilities convert to 0, so NULL tests work. *)
let ptr_to_int env v =
  match v with
  | VInt r | VPtr r -> VInt r
  | VFat (a, b, e) ->
      free_reg env b;
      free_reg env e;
      VInt a
  | VCap c ->
      let r = alloc_gpr env in
      emit env "ctoptr %s, %s, $c0" r c;
      free_cap env c;
      VInt r

let rec gen_expr env (e : expr) : value =
  match e with
  | Int v ->
      let r = alloc_gpr env in
      emit env "li %s, %Ld" r v;
      VInt r
  | Null -> null_value env
  | Sizeof ty ->
      let r = alloc_gpr env in
      emit env "li %s, %d" r (Layout.sizeof env.layout ty);
      VInt r
  | Var name -> (
      match read_local env name with
      | Some v -> v
      | None -> (
          match Hashtbl.find_opt env.globals name with
          | Some ty -> read_global env name ty
          | None -> err "unknown variable %s" name))
  | Cast (ty, e) -> (
      let v = gen_expr env e in
      (* Casts change the static type; representations already agree
         except int<->pointer casts, which we restrict. *)
      match (ty, v) with
      | Tptr _, (VCap _ | VFat _ | VPtr _) -> v
      | Tptr _, VInt _ -> err "casting integers to pointers is not supported"
      | _, v -> ptr_to_int env v)
  | Unop (op, a) -> (
      let va = gen_expr env a in
      let r = as_int va in
      let dst = alloc_gpr env in
      (match op with
      | Neg -> emit env "dsubu %s, $zero, %s" dst r
      | Not -> emit env "sltiu %s, %s, 1" dst r
      | Bnot -> emit env "nor %s, %s, $zero" dst r);
      free_value env va;
      VInt dst)
  | Binop (And, a, b) ->
      let out = alloc_gpr env in
      let l_false = fresh_label env "and_false" and l_end = fresh_label env "and_end" in
      let va = gen_expr env (Binop (Ne, a, Int 0L)) in
      emit env "beqz %s, %s" (as_int va) l_false;
      free_value env va;
      let vb = gen_expr env (Binop (Ne, b, Int 0L)) in
      emit env "move %s, %s" out (as_int vb);
      free_value env vb;
      emit env "b %s" l_end;
      emit_label env l_false;
      emit env "move %s, $zero" out;
      emit_label env l_end;
      VInt out
  | Binop (Or, a, b) ->
      let out = alloc_gpr env in
      let l_true = fresh_label env "or_true" and l_end = fresh_label env "or_end" in
      let va = gen_expr env (Binop (Ne, a, Int 0L)) in
      emit env "bnez %s, %s" (as_int va) l_true;
      free_value env va;
      let vb = gen_expr env (Binop (Ne, b, Int 0L)) in
      emit env "move %s, %s" out (as_int vb);
      free_value env vb;
      emit env "b %s" l_end;
      emit_label env l_true;
      emit env "li %s, 1" out;
      emit_label env l_end;
      VInt out
  | Binop (op, a, b) -> gen_binop env op a b
  | Field (base, fname) -> (
      match type_of env base with
      | Tptr (Tstruct s) ->
          let off, fty = Layout.field env.layout s fname in
          let pv = gen_expr_ptr env base in
          let result =
            if is_ptr_ty fty then load_ptr env pv ~imm:off ~index:None
            else load_int env pv ~imm:off ~index:None
          in
          free_value env pv;
          result
      | ty -> err "-> on %a" Ast.pp_ty ty)
  | Addr_field (base, fname) -> (
      match type_of env base with
      | Tptr (Tstruct s) ->
          let off, _fty = Layout.field env.layout s fname in
          let pv = gen_expr_ptr env base in
          gen_ptr_offset env pv off
      | ty -> err "&-> on %a" Ast.pp_ty ty)
  | Index (base, idx) -> (
      let bty = type_of env base in
      let size = elem_size env bty in
      let elem = match bty with Tptr e -> e | _ -> err "index of non-pointer" in
      let pv = gen_expr_ptr env base in
      let iv = gen_expr env idx in
      let off = alloc_gpr env in
      emit env "li $at, %d" size;
      emit env "dmult %s, $at" (as_int iv);
      emit env "mflo %s" off;
      free_value env iv;
      let result =
        if is_ptr_ty elem then load_ptr env pv ~imm:0 ~index:(Some off)
        else load_int env pv ~imm:0 ~index:(Some off)
      in
      free_reg env off;
      free_value env pv;
      result)
  | Call (name, args) -> gen_call env name args

(* Evaluate an expression that must be a pointer. *)
and gen_expr_ptr env e =
  let v = gen_expr env e in
  match (v, mode env) with
  | (VPtr _ | VFat _ | VCap _), _ -> v
  | VInt _, _ -> err "expected pointer expression"

(* Pointer displaced by a byte offset (for &p->f and p+i). *)
and gen_ptr_offset env pv off =
  if off = 0 then pv
  else
    match pv with
    | VPtr p ->
        let r = alloc_gpr env in
        emit env "daddiu %s, %s, %d" r p off;
        free_reg env p;
        VPtr r
    | VFat (a, b, e) ->
        let r = alloc_gpr env in
        emit env "daddiu %s, %s, %d" r a off;
        free_reg env a;
        VFat (r, b, e)
    | VCap c ->
        (* CIncBase: monotonic non-decreasing base — the hardware rule that
           forbids growing a capability back (Section 5.1: no native
           pointer subtraction). *)
        let d = alloc_cap env in
        emit env "li $at, %d" off;
        emit env "cincbase %s, %s, $at" d c;
        free_cap env c;
        VCap d
    | VInt _ -> err "offsetting a non-pointer"

and gen_binop env op a b =
  let ta = type_of env a and tb = type_of env b in
  match (op, ta, tb) with
  (* pointer +/- integer *)
  | Add, Tptr _, _ ->
      let size = elem_size env ta in
      let pv = gen_expr_ptr env a in
      let iv = gen_expr env b in
      let scaled = alloc_gpr env in
      emit env "li $at, %d" size;
      emit env "dmult %s, $at" (as_int iv);
      emit env "mflo %s" scaled;
      free_value env iv;
      let out =
        match pv with
        | VPtr p ->
            let r = alloc_gpr env in
            emit env "daddu %s, %s, %s" r p scaled;
            free_reg env p;
            VPtr r
        | VFat (x, bs, e) ->
            let r = alloc_gpr env in
            emit env "daddu %s, %s, %s" r x scaled;
            free_reg env x;
            VFat (r, bs, e)
        | VCap c ->
            let d = alloc_cap env in
            emit env "cincbase %s, %s, %s" d c scaled;
            free_cap env c;
            VCap d
        | VInt _ -> err "pointer add"
      in
      free_reg env scaled;
      out
  | Sub, Tptr _, Tptr _ ->
      err "pointer subtraction is not supported by CHERI capabilities (Section 5.1)"
  (* pointer comparisons: compare addresses (NULL-safe) *)
  | (Eq | Ne | Lt | Le | Gt | Ge), Tptr _, _ | (Eq | Ne | Lt | Le | Gt | Ge), _, Tptr _ ->
      let va = ptr_to_int env (gen_expr env a) in
      let vb = ptr_to_int env (gen_expr env b) in
      gen_int_compare env op va vb
  | _ ->
      let va = gen_expr env a in
      let vb = gen_expr env b in
      gen_int_arith env op va vb

and gen_int_compare env op va vb =
  let ra = as_int va and rb = as_int vb in
  let dst = alloc_gpr env in
  (match op with
  | Eq ->
      emit env "xor %s, %s, %s" dst ra rb;
      emit env "sltiu %s, %s, 1" dst dst
  | Ne ->
      emit env "xor %s, %s, %s" dst ra rb;
      emit env "sltu %s, $zero, %s" dst dst
  | Lt -> emit env "slt %s, %s, %s" dst ra rb
  | Gt -> emit env "slt %s, %s, %s" dst rb ra
  | Le ->
      emit env "slt %s, %s, %s" dst rb ra;
      emit env "xori %s, %s, 1" dst dst
  | Ge ->
      emit env "slt %s, %s, %s" dst ra rb;
      emit env "xori %s, %s, 1" dst dst
  | _ -> err "not a comparison");
  free_value env va;
  free_value env vb;
  VInt dst

and gen_int_arith env op va vb =
  match op with
  | Eq | Ne | Lt | Le | Gt | Ge -> gen_int_compare env op va vb
  | _ ->
      let ra = as_int va and rb = as_int vb in
      let dst = alloc_gpr env in
      (match op with
      | Add -> emit env "daddu %s, %s, %s" dst ra rb
      | Sub -> emit env "dsubu %s, %s, %s" dst ra rb
      | Mul ->
          emit env "dmult %s, %s" ra rb;
          emit env "mflo %s" dst
      | Div ->
          emit env "ddiv %s, %s" ra rb;
          emit env "mflo %s" dst
      | Mod ->
          emit env "ddiv %s, %s" ra rb;
          emit env "mfhi %s" dst
      | Band -> emit env "and %s, %s, %s" dst ra rb
      | Bor -> emit env "or %s, %s, %s" dst ra rb
      | Bxor -> emit env "xor %s, %s, %s" dst ra rb
      | Shl -> emit env "dsllv %s, %s, %s" dst ra rb
      | Shr -> emit env "dsrav %s, %s, %s" dst ra rb
      | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> err "unreachable");
      free_value env va;
      free_value env vb;
      VInt dst

and gen_call env name args =
  (* Inline builtins that compile to a syscall or marker. *)
  let inline_syscall num =
    match args with
    | [] ->
        let gprs, caps = save_live env in
        emit env "li $v0, %d" num;
        emit env "syscall";
        let dst = alloc_gpr env in
        emit env "move %s, $v0" dst;
        restore_live env (gprs, caps);
        VInt dst
    | [ a ] ->
        let va = gen_expr env a in
        let r = as_int (ptr_to_int env va) in
        emit env "move $a0, %s" r;
        free_reg env r;
        let gprs, caps = save_live env in
        emit env "li $v0, %d" num;
        emit env "syscall";
        let dst = alloc_gpr env in
        emit env "move %s, $v0" dst;
        restore_live env (gprs, caps);
        VInt dst
    | _ -> err "%s takes at most one argument" name
  in
  match (name, args) with
  | "exit", [ _ ] -> inline_syscall 1
  | "print_char", [ _ ] -> inline_syscall 2
  | "print_int", [ _ ] -> inline_syscall 7
  | "cycles", [] -> inline_syscall 5
  | "instret", [] -> inline_syscall 6
  | "phase_begin", [ a ] ->
      let va = gen_expr env a in
      emit env "trace.phase_begin %s" (as_int va);
      free_value env va;
      VInt (let r = alloc_gpr env in emit env "move %s, $zero" r; r)
  | "phase_end", [] ->
      emit env "trace.phase_end";
      VInt (let r = alloc_gpr env in emit env "move %s, $zero" r; r)
  | _ ->
      (* Regular call (including __malloc/free/random runtime entries). *)
      let callee, param_tys, ret_ty =
        match name with
        | "malloc" -> ("__malloc", [ Tint ], Tptr Tvoid)
        | "free" -> ("__free", [ Tptr Tvoid ], Tvoid)
        | "random" -> ("__random", [ Tint ], Tint)
        | _ -> (
            match Hashtbl.find_opt env.funcs name with
            | Some (ret, ps) -> (name, ps, ret)
            | None -> err "unknown function %s" name)
      in
      if List.length args <> List.length param_tys then
        err "%s expects %d arguments" name (List.length param_tys);
      (* Evaluate arguments into temporaries. *)
      let vals = List.map (gen_expr env) args in
      (* Save the enclosing expression's live temporaries — everything in
         use that is not an argument value. *)
      let arg_gprs =
        List.concat_map
          (function VInt r | VPtr r -> [ r ] | VFat (a, b, e) -> [ a; b; e ] | VCap _ -> [])
          vals
      in
      let arg_caps = List.concat_map (function VCap c -> [ c ] | _ -> []) vals in
      let live = save_live_except env ~gprs:arg_gprs ~caps:arg_caps in
      (* Shuffle argument values into their registers, never clobbering a
         still-pending source (cycles are broken through a scratch). *)
      let slots = arg_slots env param_tys in
      let moves =
        List.concat
          (List.map2
             (fun v slot ->
               match (v, slot) with
               | (VInt r | VPtr r), `Int a -> [ (`G, r, a) ]
               | VCap x, `Cap c -> [ (`C, x, c) ]
               | VFat (x, y, z), `Fat (a, b, e) -> [ (`G, x, a); (`G, y, b); (`G, z, e) ]
               | VCap _, `Int _ -> err "capability passed where integer expected"
               | _, `Cap _ -> err "integer passed where capability expected"
               | _, `Fat _ | VFat _, `Int _ -> err "argument representation mismatch")
             vals slots)
      in
      let emit_move kind src dst =
        if src <> dst then
          match kind with
          | `G -> emit env "move %s, %s" dst src
          | `C -> emit env "cmove %s, %s" dst src
      in
      let rec schedule moves =
        match moves with
        | [] -> ()
        | _ -> (
            let is_pending_src reg =
              List.exists (fun (_, src, dst) -> src = reg && src <> dst) moves
            in
            match
              List.find_opt (fun (_, src, dst) -> src = dst || not (is_pending_src dst)) moves
            with
            | Some ((kind, src, dst) as m) ->
                emit_move kind src dst;
                schedule (List.filter (fun m' -> m' <> m) moves)
            | None ->
                (* cycle: park one source in a scratch register *)
                let (kind, src, dst), rest =
                  match moves with m :: rest -> (m, rest) | [] -> assert false
                in
                let scratch = match kind with `G -> "$t9" | `C -> "$c1" in
                emit_move kind src scratch;
                schedule
                  ((kind, scratch, dst)
                  :: List.map
                       (fun (k, s2, d2) -> if s2 = src then (k, scratch, d2) else (k, s2, d2))
                       rest))
      in
      schedule moves;
      List.iter (free_value env) vals;
      emit env "jal %s" callee;
      (* Secure the result in fresh temporaries BEFORE restoring the saved
         registers: the return registers ($v0/$v1/$t9/$c3) may themselves
         be among the live registers about to be restored. *)
      let result =
        match (ret_ty, mode env) with
        | Tvoid, _ ->
            let r = alloc_gpr env in
            emit env "move %s, $zero" r;
            VInt r
        | Tptr _, Layout.Legacy ->
            let r = alloc_gpr env in
            emit env "move %s, $v0" r;
            VPtr r
        | Tptr _, (Layout.Cheri | Layout.Cheri128) ->
            let c = alloc_cap env in
            emit env "cmove %s, $c3" c;
            VCap c
        | Tptr _, Layout.Softcheck ->
            (* $v1 is also an allocatable temporary: secure it before any
               destination could be $v1 itself; $t9 next; $v0 is never in
               the pool. *)
            let b = alloc_gpr env in
            emit env "move %s, $v1" b;
            let e = alloc_gpr env in
            emit env "move %s, $t9" e;
            let a = alloc_gpr env in
            emit env "move %s, $v0" a;
            VFat (a, b, e)
        | _, _ ->
            let r = alloc_gpr env in
            emit env "move %s, $v0" r;
            VInt r
      in
      restore_live env live;
      result

(* --- statements ------------------------------------------------------------------ *)

let move_to_return env v =
  match (v, mode env) with
  | VCap c, (Layout.Cheri | Layout.Cheri128) -> emit env "cmove $c3, %s" c
  | VFat (a, b, e), Layout.Softcheck ->
      (* $v1 may itself hold a component: write it last ($t9 and $v0 are
         never allocatable sources). *)
      emit env "move $t9, %s" e;
      emit env "move $v0, %s" a;
      emit env "move $v1, %s" b
  | (VInt r | VPtr r), _ -> emit env "move $v0, %s" r
  | _, _ -> err "return value representation mismatch"

let rec gen_stmt env ret_label (s : stmt) =
  match s with
  | Block ss -> List.iter (gen_stmt env ret_label) ss
  | Expr e ->
      let v = gen_expr env e in
      free_value env v
  | Decl (ty, name, init) ->
      let off = frame_slot env ty in
      env.locals <- (name, (off, ty)) :: env.locals;
      (match init with
      | Some e ->
          let v = gen_expr env e in
          write_local env name v;
          free_value env v
      | None -> ())
  | Assign (lhs, rhs) -> (
      match lhs with
      | Var name when List.mem_assoc name env.locals ->
          let v = gen_expr env rhs in
          write_local env name v;
          free_value env v
      | Var name -> (
          match Hashtbl.find_opt env.globals name with
          | Some ty ->
              let v = gen_expr env rhs in
              write_global env name ty v;
              free_value env v
          | None -> err "unknown variable %s" name)
      | Field (base, fname) -> (
          match type_of env base with
          | Tptr (Tstruct sname) ->
              let off, fty = Layout.field env.layout sname fname in
              let pv = gen_expr_ptr env base in
              let v = gen_expr env rhs in
              if is_ptr_ty fty then store_ptr env pv ~imm:off ~index:None v
              else store_int env pv ~imm:off ~index:None (as_int v);
              free_value env v;
              free_value env pv
          | ty -> err "assigning through %a" Ast.pp_ty ty)
      | Index (base, idx) ->
          let bty = type_of env base in
          let size = elem_size env bty in
          let elem = match bty with Tptr e -> e | _ -> err "index of non-pointer" in
          let pv = gen_expr_ptr env base in
          let iv = gen_expr env idx in
          let off = alloc_gpr env in
          emit env "li $at, %d" size;
          emit env "dmult %s, $at" (as_int iv);
          emit env "mflo %s" off;
          free_value env iv;
          let v = gen_expr env rhs in
          if is_ptr_ty elem then store_ptr env pv ~imm:0 ~index:(Some off) v
          else store_int env pv ~imm:0 ~index:(Some off) (as_int v);
          free_value env v;
          free_reg env off;
          free_value env pv
      | _ -> err "unsupported assignment target")
  | If (cond, then_, else_) ->
      let l_else = fresh_label env "else" and l_end = fresh_label env "endif" in
      let c = ptr_to_int env (gen_expr env cond) in
      emit env "beqz %s, %s" (as_int c) l_else;
      free_value env c;
      List.iter (gen_stmt env ret_label) then_;
      emit env "b %s" l_end;
      emit_label env l_else;
      List.iter (gen_stmt env ret_label) else_;
      emit_label env l_end
  | While (cond, body) ->
      let l_top = fresh_label env "loop" and l_end = fresh_label env "endloop" in
      emit_label env l_top;
      let c = ptr_to_int env (gen_expr env cond) in
      emit env "beqz %s, %s" (as_int c) l_end;
      free_value env c;
      List.iter (gen_stmt env ret_label) body;
      emit env "b %s" l_top;
      emit_label env l_end
  | Return e ->
      (match e with
      | Some e ->
          let v = gen_expr env e in
          move_to_return env v;
          free_value env v
      | None -> emit env "move $v0, $zero");
      emit env "b %s" ret_label

(* --- functions --------------------------------------------------------------------- *)

let gen_function env (f : func) =
  env.current_fn <- f.fname;
  env.locals <- [];
  env.frame_size <- 0;
  env.gpr_free <- temp_gprs;
  env.cap_free <- temp_caps;
  let ret_label = fresh_label env "ret" in
  (* Generate the body into a scratch buffer so the final frame size is
     known when the prologue is emitted. *)
  let outer = Buffer.contents env.buf in
  Buffer.clear env.buf;
  (* Parameters land in frame slots. *)
  let slots = arg_slots env (List.map fst f.params) in
  List.iter2
    (fun (ty, name) slot ->
      let off = frame_slot env ty in
      env.locals <- (name, (off, ty)) :: env.locals;
      match slot with
      | `Int r -> emit env "sd %s, %d($fp)" r off
      | `Cap c -> emit env "csc %s, $fp, %d($c0)" c off
      | `Fat (a, b, e) ->
          emit env "sd %s, %d($fp)" a off;
          emit env "sd %s, %d($fp)" b (off + 8);
          emit env "sd %s, %d($fp)" e (off + 16))
    f.params slots;
  List.iter (gen_stmt env ret_label) f.body;
  emit env "move $v0, $zero" (* implicit return 0 / void *);
  let body = Buffer.contents env.buf in
  Buffer.clear env.buf;
  Buffer.add_string env.buf outer;
  let frame = Layout.align_to env.frame_size 32 in
  emit_label env f.fname;
  emit env "daddiu $sp, $sp, %d" (-(frame + 32));
  emit env "sd $ra, %d($sp)" frame;
  emit env "sd $fp, %d($sp)" (frame + 8);
  emit env "move $fp, $sp";
  Buffer.add_string env.buf body;
  emit_label env ret_label;
  emit env "ld $ra, %d($sp)" frame;
  emit env "ld $fp, %d($sp)" (frame + 8);
  emit env "daddiu $sp, $sp, %d" (frame + 32);
  emit env "jr $ra"

(* --- whole program -------------------------------------------------------------------- *)

let compile_program layout (p : program) =
  let env =
    {
      layout;
      buf = Buffer.create 65536;
      label_id = 0;
      gpr_free = temp_gprs;
      cap_free = temp_caps;
      locals = [];
      frame_size = 0;
      globals = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      structs_of_ptr = ();
      current_fn = "<top>";
    }
  in
  List.iter (fun (ty, name) -> Hashtbl.replace env.globals name ty) p.globals;
  List.iter
    (fun f -> Hashtbl.replace env.funcs f.fname (f.ret, List.map fst f.params))
    p.funcs;
  if not (Hashtbl.mem env.funcs "main") then err "program has no main function";
  Buffer.add_string env.buf "  .text\n";
  emit_label env "_start";
  emit env "jal main";
  emit env "move $a0, $v0";
  emit env "li $v0, 1";
  emit env "syscall";
  List.iter (gen_function env) p.funcs;
  Buffer.add_string env.buf (Runtime_asm.runtime (mode env));
  (* data section *)
  Buffer.add_string env.buf "\n  .data\n";
  Buffer.add_string env.buf Runtime_asm.data;
  List.iter
    (fun (ty, name) ->
      match (ty, mode env) with
      | Tptr _, (Layout.Cheri | Layout.Cheri128) ->
          Buffer.add_string env.buf "  .align 5\n";
          Buffer.add_string env.buf (global_label name ^ ": .space 32\n")
      | Tptr _, Layout.Softcheck ->
          Buffer.add_string env.buf (global_label name ^ ": .space 24\n")
      | _ -> Buffer.add_string env.buf (global_label name ^ ": .dword 0\n"))
    p.globals;
  Buffer.contents env.buf
