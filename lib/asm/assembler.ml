(* A two-pass assembler for the BERI/CHERI dialect.

   Syntax, per line:
     [label:] [mnemonic operands] [# comment]
   Directives: .text [addr], .data [addr], .org addr, .align n, .byte,
   .half, .word, .dword, .space n, .asciiz "s".
   Pseudo-instructions: li, dli, la, move, nop, b, beqz, bnez, neg, not.

   Registers are written $0..$31 or by ABI name ($a0, $sp, ...); capability
   registers are $c0..$c31.  Immediates accept decimal, 0x hex, and 'label'
   or 'label+offset' references.  Branches take label targets; the
   assembler computes the PC-relative word offset. *)

open Beri

type program = {
  segments : (int64 * string) list; (* load address, raw bytes *)
  entry : int64;
  symbols : (string, int64) Hashtbl.t;
}

exception Error of int * string (* line number, message *)

let err line fmt = Fmt.kstr (fun m -> raise (Error (line, m))) fmt

(* --- tokenizing -------------------------------------------------------- *)

let strip_comment s =
  let cut c s = match String.index_opt s c with Some i -> String.sub s 0 i | None -> s in
  s |> cut '#' |> cut ';'

let split_operands s =
  (* Split on commas not inside quotes. *)
  let out = ref [] and buf = Buffer.create 16 and in_str = ref false in
  String.iter
    (fun c ->
      if c = '"' then begin
        in_str := not !in_str;
        Buffer.add_char buf c
      end
      else if c = ',' && not !in_str then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    s;
  out := Buffer.contents buf :: !out;
  List.rev_map String.trim !out |> List.filter (fun s -> s <> "")

let reg_table =
  let t = Hashtbl.create 64 in
  Array.iteri (fun i name -> Hashtbl.replace t ("$" ^ name) i) Insn.reg_names;
  for i = 0 to 31 do
    Hashtbl.replace t (Printf.sprintf "$%d" i) i
  done;
  (* common aliases: o32-style $t4..$t7 for the n64 $a4..$a7 slots *)
  Hashtbl.replace t "$s8" 30;
  Hashtbl.replace t "$t4" 8;
  Hashtbl.replace t "$t5" 9;
  Hashtbl.replace t "$t6" 10;
  Hashtbl.replace t "$t7" 11;
  t

let parse_reg line s =
  match Hashtbl.find_opt reg_table (String.lowercase_ascii s) with
  | Some r -> r
  | None -> err line "unknown register %S" s

let parse_creg line s =
  let s = String.lowercase_ascii s in
  let fail () = err line "unknown capability register %S" s in
  if String.length s >= 3 && s.[0] = '$' && s.[1] = 'c' then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some r when r >= 0 && r < 32 -> r
    | _ -> fail ()
  else fail ()

(* Immediate: integer literal, or symbol[+/-offset]. *)
let parse_imm line symbols s =
  let parse_int s = Int64.of_string_opt s in
  match parse_int s with
  | Some v -> v
  | None -> (
      let sym, off =
        match (String.index_opt s '+', String.index_opt s '-') with
        | Some i, _ ->
            ( String.trim (String.sub s 0 i),
              Int64.of_string (String.trim (String.sub s (i + 1) (String.length s - i - 1))) )
        | None, Some i when i > 0 ->
            ( String.trim (String.sub s 0 i),
              Int64.neg
                (Int64.of_string (String.trim (String.sub s (i + 1) (String.length s - i - 1)))) )
        | None, _ -> (String.trim s, 0L)
      in
      match Hashtbl.find_opt symbols sym with
      | Some v -> Int64.add v off
      | None -> err line "undefined symbol %S" sym)

(* offset(base) where base is a register or capability register. *)
let parse_mem line symbols s =
  match String.index_opt s '(' with
  | None -> err line "expected offset(reg), got %S" s
  | Some i ->
      let off = String.trim (String.sub s 0 i) in
      let close = String.index s ')' in
      let base = String.trim (String.sub s (i + 1) (close - i - 1)) in
      let off = if off = "" then 0L else parse_imm line symbols off in
      (Int64.to_int off, base)

(* --- instruction table -------------------------------------------------- *)

(* The number of machine instructions a statement expands to (pass 1). *)
let statement_size mnemonic ops =
  match (mnemonic, ops) with
  | "li", [ _; imm ] | "dli", [ _; imm ] -> (
      (* Worst-case when the immediate is symbolic; exact when literal. *)
      match Int64.of_string_opt imm with
      | Some v when Int64.compare v (-32768L) >= 0 && Int64.compare v 32767L <= 0 -> 1
      | _ -> 2)
  | "la", _ -> 2
  | _ -> 1

let fits16s v = Int64.compare v (-32768L) >= 0 && Int64.compare v 32767L <= 0

(* Expand one statement into machine instructions (pass 2).  [pc] is the
   address of the first emitted instruction. *)
let expand line symbols pc mnemonic ops =
  let reg = parse_reg line and creg = parse_creg line in
  let imm s = parse_imm line symbols s in
  let imm_int s = Int64.to_int (imm s) in
  let branch_off target_str n_before =
    (* Offset is relative to the instruction after the branch. *)
    let target = imm target_str in
    let branch_pc = Int64.add pc (Int64.of_int (4 * n_before)) in
    let diff = Int64.sub target (Int64.add branch_pc 4L) in
    if Int64.rem diff 4L <> 0L then err line "misaligned branch target";
    let off = Int64.to_int (Int64.div diff 4L) in
    if off < -32768 || off > 32767 then err line "branch target out of range";
    off
  in
  let jump_target s =
    let t = imm s in
    if Int64.rem t 4L <> 0L then err line "misaligned jump target";
    Int64.to_int (Int64.div (Int64.logand t 0x0FFF_FFFFL) 4L)
  in
  let mem s = parse_mem line symbols s in
  let rrr f = match ops with
    | [ d; s; t ] -> [ f (reg d) (reg s) (reg t) ]
    | _ -> err line "%s expects rd, rs, rt" mnemonic
  in
  let rri f = match ops with
    | [ d; s; i ] -> [ f (reg d) (reg s) (imm_int i) ]
    | _ -> err line "%s expects rd, rs, imm" mnemonic
  in
  let shift f = rri f in
  let load w u = match ops with
    | [ r; m ] ->
        let off, base = mem m in
        [ Insn.Load (w, u, reg r, parse_reg line base, off) ]
    | _ -> err line "%s expects rt, offset(base)" mnemonic
  in
  let store w = match ops with
    | [ r; m ] ->
        let off, base = mem m in
        [ Insn.Store (w, reg r, parse_reg line base, off) ]
    | _ -> err line "%s expects rt, offset(base)" mnemonic
  in
  let cload w u = match ops with
    | [ rd; rt; m ] ->
        let off, base = mem m in
        [ Insn.CLoad (w, u, reg rd, parse_creg line base, reg rt, off) ]
    | _ -> err line "%s expects rd, rt, offset($cb)" mnemonic
  in
  let cstore w = match ops with
    | [ rs; rt; m ] ->
        let off, base = mem m in
        [ Insn.CStore (w, reg rs, parse_creg line base, reg rt, off) ]
    | _ -> err line "%s expects rs, rt, offset($cb)" mnemonic
  in
  match (mnemonic, ops) with
  | "nop", [] -> [ Insn.nop ]
  | "add", _ -> rrr (fun d s t -> Insn.Add (d, s, t))
  | "addu", _ -> rrr (fun d s t -> Insn.Addu (d, s, t))
  | "dadd", _ -> rrr (fun d s t -> Insn.Dadd (d, s, t))
  | "daddu", _ -> rrr (fun d s t -> Insn.Daddu (d, s, t))
  | "sub", _ -> rrr (fun d s t -> Insn.Sub (d, s, t))
  | "subu", _ -> rrr (fun d s t -> Insn.Subu (d, s, t))
  | "dsubu", _ -> rrr (fun d s t -> Insn.Dsubu (d, s, t))
  | "and", _ -> rrr (fun d s t -> Insn.And (d, s, t))
  | "or", _ -> rrr (fun d s t -> Insn.Or (d, s, t))
  | "xor", _ -> rrr (fun d s t -> Insn.Xor (d, s, t))
  | "nor", _ -> rrr (fun d s t -> Insn.Nor (d, s, t))
  | "slt", _ -> rrr (fun d s t -> Insn.Slt (d, s, t))
  | "sltu", _ -> rrr (fun d s t -> Insn.Sltu (d, s, t))
  | "addiu", _ -> rri (fun d s i -> Insn.Addiu (d, s, i))
  | "daddiu", _ -> rri (fun d s i -> Insn.Daddiu (d, s, i))
  | "andi", _ -> rri (fun d s i -> Insn.Andi (d, s, i))
  | "ori", _ -> rri (fun d s i -> Insn.Ori (d, s, i))
  | "xori", _ -> rri (fun d s i -> Insn.Xori (d, s, i))
  | "slti", _ -> rri (fun d s i -> Insn.Slti (d, s, i))
  | "sltiu", _ -> rri (fun d s i -> Insn.Sltiu (d, s, i))
  | "lui", [ r; i ] -> [ Insn.Lui (reg r, imm_int i) ]
  | "sll", _ -> shift (fun d t sa -> Insn.Sll (d, t, sa))
  | "srl", _ -> shift (fun d t sa -> Insn.Srl (d, t, sa))
  | "sra", _ -> shift (fun d t sa -> Insn.Sra (d, t, sa))
  | "dsll", _ -> shift (fun d t sa -> Insn.Dsll (d, t, sa))
  | "dsrl", _ -> shift (fun d t sa -> Insn.Dsrl (d, t, sa))
  | "dsra", _ -> shift (fun d t sa -> Insn.Dsra (d, t, sa))
  | "dsll32", _ -> shift (fun d t sa -> Insn.Dsll32 (d, t, sa))
  | "dsrl32", _ -> shift (fun d t sa -> Insn.Dsrl32 (d, t, sa))
  | "sllv", _ -> rrr (fun d t s -> Insn.Sllv (d, t, s))
  | "srlv", _ -> rrr (fun d t s -> Insn.Srlv (d, t, s))
  | "srav", _ -> rrr (fun d t s -> Insn.Srav (d, t, s))
  | "dsllv", _ -> rrr (fun d t s -> Insn.Dsllv (d, t, s))
  | "dsrlv", _ -> rrr (fun d t s -> Insn.Dsrlv (d, t, s))
  | "dsrav", _ -> rrr (fun d t s -> Insn.Dsrav (d, t, s))
  | "mult", [ s; t ] -> [ Insn.Mult (reg s, reg t) ]
  | "multu", [ s; t ] -> [ Insn.Multu (reg s, reg t) ]
  | "dmult", [ s; t ] -> [ Insn.Dmult (reg s, reg t) ]
  | "dmultu", [ s; t ] -> [ Insn.Dmultu (reg s, reg t) ]
  | "div", [ s; t ] -> [ Insn.Div (reg s, reg t) ]
  | "divu", [ s; t ] -> [ Insn.Divu (reg s, reg t) ]
  | "ddiv", [ s; t ] -> [ Insn.Ddiv (reg s, reg t) ]
  | "ddivu", [ s; t ] -> [ Insn.Ddivu (reg s, reg t) ]
  | "mfhi", [ d ] -> [ Insn.Mfhi (reg d) ]
  | "mflo", [ d ] -> [ Insn.Mflo (reg d) ]
  | "mthi", [ s ] -> [ Insn.Mthi (reg s) ]
  | "mtlo", [ s ] -> [ Insn.Mtlo (reg s) ]
  | "lb", _ -> load Insn.B false
  | "lbu", _ -> load Insn.B true
  | "lh", _ -> load Insn.H false
  | "lhu", _ -> load Insn.H true
  | "lw", _ -> load Insn.W false
  | "lwu", _ -> load Insn.W true
  | "ld", _ -> load Insn.D false
  | "sb", _ -> store Insn.B
  | "sh", _ -> store Insn.H
  | "sw", _ -> store Insn.W
  | "sd", _ -> store Insn.D
  | "lld", [ r; m ] ->
      let off, base = mem m in
      [ Insn.Lld (reg r, parse_reg line base, off) ]
  | "scd", [ r; m ] ->
      let off, base = mem m in
      [ Insn.Scd (reg r, parse_reg line base, off) ]
  | "j", [ t ] -> [ Insn.J (jump_target t) ]
  | "jal", [ t ] -> [ Insn.Jal (jump_target t) ]
  | "jr", [ s ] -> [ Insn.Jr (reg s) ]
  | "jalr", [ s ] -> [ Insn.Jalr (Regs.ra, reg s) ]
  | "jalr", [ d; s ] -> [ Insn.Jalr (reg d, reg s) ]
  | "beq", [ s; t; o ] -> [ Insn.Beq (reg s, reg t, branch_off o 0) ]
  | "bne", [ s; t; o ] -> [ Insn.Bne (reg s, reg t, branch_off o 0) ]
  | "blez", [ s; o ] -> [ Insn.Blez (reg s, branch_off o 0) ]
  | "bgtz", [ s; o ] -> [ Insn.Bgtz (reg s, branch_off o 0) ]
  | "bltz", [ s; o ] -> [ Insn.Bltz (reg s, branch_off o 0) ]
  | "bgez", [ s; o ] -> [ Insn.Bgez (reg s, branch_off o 0) ]
  | "b", [ o ] -> [ Insn.Beq (0, 0, branch_off o 0) ]
  | "beqz", [ s; o ] -> [ Insn.Beq (reg s, 0, branch_off o 0) ]
  | "bnez", [ s; o ] -> [ Insn.Bne (reg s, 0, branch_off o 0) ]
  | "syscall", [] -> [ Insn.Syscall ]
  | "break", [] -> [ Insn.Break ]
  | "eret", [] -> [ Insn.Eret ]
  | "mfc0", [ r; d ] -> [ Insn.Mfc0 (reg r, imm_int (String.map (fun c -> if c = '$' then ' ' else c) d |> String.trim)) ]
  | "mtc0", [ r; d ] -> [ Insn.Mtc0 (reg r, imm_int (String.map (fun c -> if c = '$' then ' ' else c) d |> String.trim)) ]
  | "trace.alloc", [ a; b ] -> [ Insn.Trace (Insn.M_alloc, reg a, reg b) ]
  | "trace.free", [ a ] -> [ Insn.Trace (Insn.M_free, reg a, 0) ]
  | "trace.phase_begin", [ a ] -> [ Insn.Trace (Insn.M_phase_begin, reg a, 0) ]
  | "trace.phase_end", [] -> [ Insn.Trace (Insn.M_phase_end, 0, 0) ]
  | "move", [ d; s ] -> [ Insn.Daddu (reg d, reg s, 0) ]
  | "neg", [ d; s ] -> [ Insn.Subu (reg d, 0, reg s) ]
  | "not", [ d; s ] -> [ Insn.Nor (reg d, reg s, 0) ]
  | ("li" | "dli"), [ d; i ] ->
      let v = imm i in
      if fits16s v then [ Insn.Daddiu (reg d, 0, Int64.to_int v) ]
      else if Int64.compare v 0L >= 0 && Int64.compare v 0xFFFF_FFFFL <= 0 then
        [ Insn.Lui (reg d, Int64.to_int (Int64.shift_right_logical v 16));
          Insn.Ori (reg d, reg d, Int64.to_int (Int64.logand v 0xFFFFL)) ]
      else err line "immediate %Ld out of 32-bit range for li" v
  | "la", [ d; sym ] ->
      let v = imm sym in
      if Int64.compare v 0L < 0 || Int64.compare v 0x7FFF_FFFFL > 0 then
        err line "address out of la range";
      [ Insn.Lui (reg d, Int64.to_int (Int64.shift_right_logical v 16));
        Insn.Ori (reg d, reg d, Int64.to_int (Int64.logand v 0xFFFFL)) ]
  (* --- CHERI --- *)
  | "cgetbase", [ d; cb ] -> [ Insn.CGetBase (reg d, creg cb) ]
  | "cgetlen", [ d; cb ] -> [ Insn.CGetLen (reg d, creg cb) ]
  | "cgettag", [ d; cb ] -> [ Insn.CGetTag (reg d, creg cb) ]
  | "cgetperm", [ d; cb ] -> [ Insn.CGetPerm (reg d, creg cb) ]
  | "cgetpcc", [ d; cd ] -> [ Insn.CGetPCC (reg d, creg cd) ]
  | "cgetcause", [ d ] -> [ Insn.CGetCause (reg d) ]
  | "cincbase", [ cd; cb; rt ] -> [ Insn.CIncBase (creg cd, creg cb, reg rt) ]
  | "csetlen", [ cd; cb; rt ] -> [ Insn.CSetLen (creg cd, creg cb, reg rt) ]
  | "ccleartag", [ cd; cb ] -> [ Insn.CClearTag (creg cd, creg cb) ]
  | "ccleartag", [ cd ] -> [ Insn.CClearTag (creg cd, creg cd) ]
  | "candperm", [ cd; cb; rt ] -> [ Insn.CAndPerm (creg cd, creg cb, reg rt) ]
  | "cmove", [ cd; cb ] -> [ Insn.CMove (creg cd, creg cb) ]
  | "ctoptr", [ rd; cb; ct ] -> [ Insn.CToPtr (reg rd, creg cb, creg ct) ]
  | "cfromptr", [ cd; cb; rt ] -> [ Insn.CFromPtr (creg cd, creg cb, reg rt) ]
  | "cbtu", [ cb; o ] -> [ Insn.CBTU (creg cb, branch_off o 0) ]
  | "cbts", [ cb; o ] -> [ Insn.CBTS (creg cb, branch_off o 0) ]
  | "clc", [ cd; rt; m ] ->
      let off, base = mem m in
      [ Insn.CLC (creg cd, parse_creg line base, reg rt, off) ]
  | "csc", [ cs; rt; m ] ->
      let off, base = mem m in
      [ Insn.CSC (creg cs, parse_creg line base, reg rt, off) ]
  | "clb", _ -> cload Insn.B false
  | "clbu", _ -> cload Insn.B true
  | "clh", _ -> cload Insn.H false
  | "clhu", _ -> cload Insn.H true
  | "clw", _ -> cload Insn.W false
  | "clwu", _ -> cload Insn.W true
  | "cld", _ -> cload Insn.D false
  | "csb", _ -> cstore Insn.B
  | "csh", _ -> cstore Insn.H
  | "csw", _ -> cstore Insn.W
  | "csd", _ -> cstore Insn.D
  | "clld", [ rd; cb ] -> [ Insn.CLLD (reg rd, creg cb) ]
  | "cscd", [ rd; rs; cb ] -> [ Insn.CSCD (reg rd, reg rs, creg cb) ]
  | "cjr", [ cb ] -> [ Insn.CJR (creg cb) ]
  | "cjalr", [ cd; cb ] -> [ Insn.CJALR (creg cd, creg cb) ]
  | "cseal", [ cd; cs; ct ] -> [ Insn.CSeal (creg cd, creg cs, creg ct) ]
  | "cunseal", [ cd; cs; ct ] -> [ Insn.CUnseal (creg cd, creg cs, creg ct) ]
  | "ccall", [ cs; cb ] -> [ Insn.CCall (creg cs, creg cb) ]
  | "creturn", [] -> [ Insn.CReturn ]
  | _ -> err line "unknown instruction %S (%d operands)" mnemonic (List.length ops)

(* --- assembly ----------------------------------------------------------- *)

type item =
  | Stmt of int * string * string list (* line, mnemonic, operands *)
  | Data of int * [ `Byte of string list | `Half of string list | `Word of string list
                  | `Dword of string list | `Space of int | `Asciiz of string | `Align of int ]

let parse_string line s =
  let s = String.trim s in
  if String.length s < 2 || s.[0] <> '"' || s.[String.length s - 1] <> '"' then
    err line "expected string literal";
  let body = String.sub s 1 (String.length s - 2) in
  let buf = Buffer.create (String.length body) in
  let rec go i =
    if i < String.length body then
      if body.[i] = '\\' && i + 1 < String.length body then begin
        (match body.[i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | '0' -> Buffer.add_char buf '\000'
        | c -> Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf body.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let default_text_base = 0x1_0000L
let default_data_base = 0x10_0000L

let assemble ?(text_base = default_text_base) ?(data_base = default_data_base) source =
  let symbols : (string, int64) Hashtbl.t = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' source in
  (* Pass 1: record label addresses and collect items per section. *)
  let text_items = ref [] and data_items = ref [] in
  let text_pc = ref text_base and data_pc = ref data_base in
  let text_start = ref None and data_start = ref None in
  let section = ref `Text in
  let pc () = match !section with `Text -> text_pc | `Data -> data_pc in
  let push item =
    match !section with
    | `Text ->
        if !text_start = None then text_start := Some !text_pc;
        text_items := item :: !text_items
    | `Data ->
        if !data_start = None then data_start := Some !data_pc;
        data_items := item :: !data_items
  in
  let advance n = (pc ()) := Int64.add !(pc ()) (Int64.of_int n) in
  let data_size line = function
    | `Byte vs -> List.length vs
    | `Half vs -> 2 * List.length vs
    | `Word vs -> 4 * List.length vs
    | `Dword vs -> 8 * List.length vs
    | `Space n -> n
    | `Asciiz s -> String.length (parse_string line s) + 1
    | `Align _ -> 0 (* handled specially below *)
  in
  List.iteri
    (fun lineno raw ->
      let line = lineno + 1 in
      let s = String.trim (strip_comment raw) in
      if s <> "" then begin
        (* Labels (possibly several) at the start of the line. *)
        let rec strip_labels s =
          match String.index_opt s ':' with
          | Some i
            when String.for_all
                   (fun c -> c = '_' || c = '.' || c = '$' ||
                             (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                             (c >= '0' && c <= '9'))
                   (String.sub s 0 i) && i > 0 ->
              Hashtbl.replace symbols (String.sub s 0 i) !(pc ());
              strip_labels (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
          | _ -> s
        in
        let s = strip_labels s in
        if s <> "" then begin
          let mnemonic, rest =
            match String.index_opt s ' ' with
            | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
            | None -> (s, "")
          in
          let mnemonic = String.lowercase_ascii mnemonic in
          let ops = split_operands rest in
          match mnemonic with
          | ".text" ->
              section := `Text;
              (match ops with [ a ] -> text_pc := Int64.of_string a | _ -> ())
          | ".data" ->
              section := `Data;
              (match ops with [ a ] -> data_pc := Int64.of_string a | _ -> ())
          | ".org" -> (
              match ops with
              | [ a ] -> (pc ()) := Int64.of_string a
              | _ -> err line ".org expects an address")
          | ".globl" | ".global" | ".ent" | ".end" | ".set" -> ()
          | ".align" -> (
              match ops with
              | [ n ] ->
                  let align = 1 lsl int_of_string n in
                  let aligned = Cap.U64.align_up !(pc ()) (Int64.of_int align) in
                  let pad = Int64.to_int (Int64.sub aligned !(pc ())) in
                  push (Data (line, `Space pad));
                  advance pad
              | _ -> err line ".align expects a power")
          | ".byte" -> push (Data (line, `Byte ops)); advance (List.length ops)
          | ".half" -> push (Data (line, `Half ops)); advance (2 * List.length ops)
          | ".word" -> push (Data (line, `Word ops)); advance (4 * List.length ops)
          | ".dword" | ".quad" -> push (Data (line, `Dword ops)); advance (8 * List.length ops)
          | ".space" -> (
              match ops with
              | [ n ] ->
                  let n = int_of_string n in
                  push (Data (line, `Space n));
                  advance n
              | _ -> err line ".space expects a size")
          | ".asciiz" ->
              let d = `Asciiz rest in
              push (Data (line, d));
              advance (data_size line d)
          | _ ->
              if mnemonic.[0] = '.' then err line "unknown directive %S" mnemonic
              else begin
                push (Stmt (line, mnemonic, ops));
                advance (4 * statement_size mnemonic ops)
              end
        end
      end)
    lines;
  (* Pass 2: emit bytes. *)
  let emit_section base items =
    let buf = Buffer.create 4096 in
    let pc = ref base in
    List.iter
      (fun item ->
        match item with
        | Stmt (line, mnemonic, ops) ->
            let planned = statement_size mnemonic ops in
            let insns = expand line symbols !pc mnemonic ops in
            let insns =
              (* Keep pass-1 size estimates honest by padding with nops. *)
              if List.length insns < planned then
                insns @ List.init (planned - List.length insns) (fun _ -> Insn.nop)
              else if List.length insns > planned then
                err line "internal: statement grew between passes"
              else insns
            in
            List.iter
              (fun insn ->
                let word =
                  try Code.encode insn with Invalid_argument m -> err line "%s" m
                in
                Buffer.add_char buf (Char.chr (word land 0xFF));
                Buffer.add_char buf (Char.chr ((word lsr 8) land 0xFF));
                Buffer.add_char buf (Char.chr ((word lsr 16) land 0xFF));
                Buffer.add_char buf (Char.chr ((word lsr 24) land 0xFF));
                pc := Int64.add !pc 4L)
              insns
        | Data (line, d) -> (
            let add_int n v =
              for i = 0 to n - 1 do
                Buffer.add_char buf (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
              done;
              pc := Int64.add !pc (Int64.of_int n)
            in
            match d with
            | `Byte vs -> List.iter (fun v -> add_int 1 (parse_imm line symbols v)) vs
            | `Half vs -> List.iter (fun v -> add_int 2 (parse_imm line symbols v)) vs
            | `Word vs -> List.iter (fun v -> add_int 4 (parse_imm line symbols v)) vs
            | `Dword vs -> List.iter (fun v -> add_int 8 (parse_imm line symbols v)) vs
            | `Space n ->
                Buffer.add_string buf (String.make n '\000');
                pc := Int64.add !pc (Int64.of_int n)
            | `Asciiz s ->
                let str = parse_string line s in
                Buffer.add_string buf str;
                Buffer.add_char buf '\000';
                pc := Int64.add !pc (Int64.of_int (String.length str + 1))
            | `Align _ -> ()))
      items;
    Buffer.contents buf
  in
  let text_start = Option.value !text_start ~default:text_base in
  let data_start = Option.value !data_start ~default:data_base in
  let text = emit_section text_start (List.rev !text_items) in
  let data = emit_section data_start (List.rev !data_items) in
  let entry =
    match Hashtbl.find_opt symbols "_start" with
    | Some e -> e
    | None -> ( match Hashtbl.find_opt symbols "main" with Some e -> e | None -> text_start)
  in
  let segments =
    List.filter (fun (_, s) -> String.length s > 0) [ (text_start, text); (data_start, data) ]
  in
  { segments; entry; symbols }

(* Load a program into a machine's physical memory (identity-mapped). *)
let load (m : Machine.t) program =
  Machine.invalidate_icache m;
  List.iter
    (fun (base, bytes) ->
      Mem.Phys.write_bytes m.Machine.phys base (Bytes.of_string bytes);
      Machine.map_identity m ~vaddr:base ~len:(String.length bytes) Mem.Tlb.prot_rwx)
    program.segments;
  Machine.set_pc m program.entry

let symbol program name = Hashtbl.find_opt program.symbols name
