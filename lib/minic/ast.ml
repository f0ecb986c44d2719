(* The minic language: the C-like subset used to port the Olden kernels to
   the simulated machine (DESIGN.md explains its role as the stand-in for
   the paper's LLVM/Clang adaptation).

   Pointer-relevant semantics follow C: structs live behind pointers,
   pointers are typed, arrays are accessed by indexing.  The
   [__capability] qualifier of the paper's Clang extension is accepted on
   pointer types; under `-mode cheri` *all* pointers are lowered to
   capabilities (the whole-program adaptation the paper applies to Olden),
   so the qualifier is informative only. *)

type ty =
  | Tint (* 64-bit integer *)
  | Tvoid
  | Tptr of ty (* possibly __capability-qualified; qualifier erased *)
  | Tstruct of string

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or (* short-circuit *)
  | Band | Bor | Bxor | Shl | Shr

type unop = Neg | Not | Bnot

type expr =
  | Int of int64
  | Null
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Field of expr * string (* e->f : e has pointer-to-struct type *)
  | Index of expr * expr (* e[i] *)
  | Addr_field of expr * string (* &e->f : pointer to a field *)
  | Sizeof of ty
  | Cast of ty * expr

type stmt =
  | Expr of expr
  | Decl of ty * string * expr option
  | Assign of expr * expr (* lvalue = rvalue *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Block of stmt list

type func = {
  fname : string;
  ret : ty;
  params : (ty * string) list;
  body : stmt list;
}

type struct_def = { sname : string; fields : (ty * string) list }

type program = {
  structs : struct_def list;
  globals : (ty * string) list;
  funcs : func list;
}

let rec pp_ty ppf = function
  | Tint -> Fmt.string ppf "int"
  | Tvoid -> Fmt.string ppf "void"
  | Tptr t -> Fmt.pf ppf "%a*" pp_ty t
  | Tstruct s -> Fmt.pf ppf "struct %s" s
