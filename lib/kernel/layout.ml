(* Where the kernel model's heap starts.  The heap grows from here; the
   stack and the heap limit scale with the machine, so [Kernel.attach]
   derives them from its size, and the assembler keeps its own text and
   data defaults. *)

let heap_base = 0x20_0000L
