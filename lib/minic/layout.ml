(* Mode-dependent data layout.

   The three compilation modes correspond to the paper's Figure 4
   configurations:
     - [Legacy]: conventional MIPS code generation, 8-byte pointers, no
       checks (the "unsafe MIPS baseline");
     - [Cheri]: pointers are 256-bit capabilities (32 bytes, 32-byte
       aligned); bounds and permissions checked by hardware on every
       dereference;
     - [Cheri128]: the Section 4.1 compressed format — 16-byte
       capabilities on a machine configured with [Machine.W128] (the
       Section 8 "capability compression" ablation);
     - [Softcheck]: CCured-style software fat pointers
       {addr, base, end} = 24 bytes, with explicit check code.

   sizeof and field offsets therefore differ per mode — exactly why the
   paper's Olden ports must be recompiled rather than relinked. *)

open Ast

type mode = Legacy | Cheri | Cheri128 | Softcheck

let mode_name = function
  | Legacy -> "legacy"
  | Cheri -> "cheri"
  | Cheri128 -> "cheri128"
  | Softcheck -> "softcheck"

let ptr_size = function Legacy -> 8 | Cheri -> 32 | Cheri128 -> 16 | Softcheck -> 24
let ptr_align = function Legacy -> 8 | Cheri -> 32 | Cheri128 -> 16 | Softcheck -> 8

exception Error of string

let err fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

type struct_layout = {
  size : int;
  align : int;
  offsets : (string * (int * ty)) list; (* field -> offset, type *)
}

type t = {
  mode : mode;
  structs : (string, struct_layout) Hashtbl.t;
  defs : (string, struct_def) Hashtbl.t;
}

let align_to v a = (v + a - 1) / a * a

let rec size_align t = function
  | Tint -> (8, 8)
  | Tvoid -> err "sizeof(void)"
  | Tptr _ -> (ptr_size t.mode, ptr_align t.mode)
  | Tstruct name ->
      let l = struct_layout t name in
      (l.size, l.align)

and struct_layout t name =
  match Hashtbl.find_opt t.structs name with
  | Some l -> l
  | None ->
      let def =
        match Hashtbl.find_opt t.defs name with
        | Some d -> d
        | None -> err "unknown struct %s" name
      in
      let offsets, size, align =
        List.fold_left
          (fun (offs, off, align) (ty, fname) ->
            let s, a = size_align t ty in
            let off = align_to off a in
            ((fname, (off, ty)) :: offs, off + s, max align a))
          ([], 0, 8) def.fields
      in
      let l = { size = align_to size align; align; offsets = List.rev offsets } in
      Hashtbl.replace t.structs name l;
      l

let field t sname fname =
  let l = struct_layout t sname in
  match List.assoc_opt fname l.offsets with
  | Some x -> x
  | None -> err "struct %s has no field %s" sname fname

let create mode (program : program) =
  let t = { mode; structs = Hashtbl.create 16; defs = Hashtbl.create 16 } in
  List.iter (fun d -> Hashtbl.replace t.defs d.sname d) program.structs;
  (* Force layouts now so cycles and unknown types fail early. *)
  List.iter (fun (d : struct_def) -> ignore (struct_layout t d.sname)) program.structs;
  t

let sizeof t ty = fst (size_align t ty)
