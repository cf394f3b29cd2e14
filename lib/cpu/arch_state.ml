open S4e_isa

type word = int

type t = {
  mutable hartid : int;
  mutable misa : word;
  regs : word array;
  fregs : word array;
  mutable pc : word;
  mutable mstatus : word;
  mutable mie : word;
  mutable mip : word;
  mutable mtvec : word;
  mutable mscratch : word;
  mutable mepc : word;
  mutable mcause : word;
  mutable mtval : word;
  mutable fcsr : word;
  mutable cycle : int;
  mutable instret : int;
  mutable time_source : unit -> int;
  mutable reservation : int option;
  pin_and : word array;
  pin_or : word array;
  mutable pinned_x : int;
  mutable pinned_f : int;
}

(* Reset value of mstatus: MPP = 11 (machine), everything else clear. *)
let mstatus_reset = 0x0000_1800

(* RV32IMAFC + B-as-X: base 32 (bits 31:30 = 01), letters A I M F C. *)
let misa_default =
  0x4000_0000 lor (1 lsl 8) lor (1 lsl 12) lor (1 lsl 5) lor (1 lsl 2)
  lor (1 lsl 0)

let create ?(pc = 0) ?(hartid = 0) () =
  let t =
    { hartid; misa = misa_default;
      regs = Array.make 32 0; fregs = Array.make 32 0; pc;
      mstatus = mstatus_reset; mie = 0; mip = 0; mtvec = 0; mscratch = 0;
      mepc = 0; mcause = 0; mtval = 0; fcsr = 0; cycle = 0; instret = 0;
      time_source = (fun () -> 0); reservation = None;
      pin_and = Array.make 64 0xFFFF_FFFF; pin_or = Array.make 64 0;
      pinned_x = 0; pinned_f = 0 }
  in
  t.time_source <- (fun () -> t.cycle);
  t

(* ---------------- stuck-at pins ----------------

   Slot [r] of [pin_and]/[pin_or] holds GPR [r]'s pins, slot [32 + r]
   FPR [r]'s: a held value is [(v land pin_and) lor pin_or]. *)

type file = X | F

let slot file r = match file with X -> r | F -> 32 + r

let hold_reg t r =
  Array.unsafe_set t.regs r
    (Array.unsafe_get t.regs r land Array.unsafe_get t.pin_and r
    lor Array.unsafe_get t.pin_or r)

let hold_freg t r =
  let s = 32 + r in
  Array.unsafe_set t.fregs r
    (Array.unsafe_get t.fregs r land Array.unsafe_get t.pin_and s
    lor Array.unsafe_get t.pin_or s)

let has_pins t = t.pinned_x lor t.pinned_f <> 0

let is_pinned t file r =
  match file with
  | X -> t.pinned_x land (1 lsl r) <> 0
  | F -> t.pinned_f land (1 lsl r) <> 0

let hold_all t =
  if has_pins t then
    for r = 0 to 31 do
      if t.pinned_x land (1 lsl r) <> 0 then hold_reg t r;
      if t.pinned_f land (1 lsl r) <> 0 then hold_freg t r
    done

(* Recompute the pinned-register masks from the slots. *)
let sync_pinned t =
  let mask base =
    let m = ref 0 in
    for r = 0 to 31 do
      let s = base + r in
      if t.pin_and.(s) <> 0xFFFF_FFFF || t.pin_or.(s) <> 0 then
        m := !m lor (1 lsl r)
    done;
    !m
  in
  t.pinned_x <- mask 0;
  t.pinned_f <- mask 32

let pin t file r ~bit v =
  (* x0 is hardwired: a pin there would hold nothing *)
  if not (file = X && r = 0) then begin
    let s = slot file r and b = 1 lsl bit in
    let hold m = if v then m lor b else m land lnot b in
    t.pin_or.(s) <- hold t.pin_or.(s);
    t.pin_and.(s) <- hold t.pin_and.(s);
    sync_pinned t;
    hold_all t
  end

let unpin t file r ~bit =
  let s = slot file r and b = 1 lsl bit in
  t.pin_or.(s) <- t.pin_or.(s) land lnot b;
  t.pin_and.(s) <- t.pin_and.(s) lor b;
  sync_pinned t

let reset t ~pc =
  Array.fill t.regs 0 32 0;
  Array.fill t.fregs 0 32 0;
  t.pc <- pc;
  t.mstatus <- mstatus_reset;
  t.mie <- 0;
  t.mip <- 0;
  t.mtvec <- 0;
  t.mscratch <- 0;
  t.mepc <- 0;
  t.mcause <- 0;
  t.mtval <- 0;
  t.fcsr <- 0;
  t.cycle <- 0;
  t.instret <- 0;
  t.reservation <- None;
  hold_all t

let get_reg t r = if r = 0 then 0 else Array.unsafe_get t.regs r

let set_reg t r v =
  if r <> 0 then Array.unsafe_set t.regs r (v land 0xFFFF_FFFF)

let get_freg t r = Array.unsafe_get t.fregs r
let set_freg t r v = Array.unsafe_set t.fregs r (v land 0xFFFF_FFFF)

let mie_bit t = t.mstatus land 0x8 <> 0

let set_mie_bit t v =
  t.mstatus <- (if v then t.mstatus lor 0x8 else t.mstatus land lnot 0x8)

let mpie_bit t = t.mstatus land 0x80 <> 0

let set_mpie_bit t v =
  t.mstatus <- (if v then t.mstatus lor 0x80 else t.mstatus land lnot 0x80)

(* Only the bits we implement are writable in mstatus: MIE and MPIE.
   MPP reads as 11 and ignores writes (machine mode only). *)
let mstatus_write_mask = 0x88

let lo32 v = v land 0xFFFF_FFFF
let hi32 v = (v lsr 32) land 0x7FFF_FFFF

let csr_read t a =
  if a = Csr.fflags then Some (t.fcsr land 0x1F)
  else if a = Csr.frm then Some ((t.fcsr lsr 5) land 0x7)
  else if a = Csr.fcsr then Some (t.fcsr land 0xFF)
  else if a = Csr.mstatus then Some t.mstatus
  else if a = Csr.misa then Some t.misa
  else if a = Csr.mie then Some t.mie
  else if a = Csr.mip then Some t.mip
  else if a = Csr.mtvec then Some t.mtvec
  else if a = Csr.mscratch then Some t.mscratch
  else if a = Csr.mepc then Some t.mepc
  else if a = Csr.mcause then Some t.mcause
  else if a = Csr.mtval then Some t.mtval
  else if a = Csr.mhartid then Some t.hartid
  else if a = Csr.mvendorid || a = Csr.marchid || a = Csr.mimpid then Some 0
  else if a = Csr.mcycle || a = Csr.cycle then Some (lo32 t.cycle)
  else if a = Csr.cycleh then Some (hi32 t.cycle)
  else if a = Csr.minstret || a = Csr.instret then Some (lo32 t.instret)
  else if a = Csr.instreth then Some (hi32 t.instret)
  else if a = Csr.time then Some (lo32 (t.time_source ()))
  else if a = Csr.timeh then Some (hi32 (t.time_source ()))
  else None

let csr_write t a v =
  let v = lo32 v in
  if Csr.is_read_only a then None
  else if a = Csr.fflags then begin
    t.fcsr <- (t.fcsr land lnot 0x1F) lor (v land 0x1F);
    Some ()
  end
  else if a = Csr.frm then begin
    t.fcsr <- (t.fcsr land lnot 0xE0) lor ((v land 0x7) lsl 5);
    Some ()
  end
  else if a = Csr.fcsr then begin
    t.fcsr <- v land 0xFF;
    Some ()
  end
  else if a = Csr.mstatus then begin
    t.mstatus <-
      (t.mstatus land lnot mstatus_write_mask) lor (v land mstatus_write_mask);
    Some ()
  end
  else if a = Csr.misa then Some () (* writes ignored *)
  else if a = Csr.mie then begin
    (* MSIE, MTIE, MEIE *)
    t.mie <- v land 0x888;
    Some ()
  end
  else if a = Csr.mip then Some () (* pending bits are hardware-driven *)
  else if a = Csr.mtvec then begin
    (* Direct mode only: low two bits forced to zero. *)
    t.mtvec <- v land lnot 0x3;
    Some ()
  end
  else if a = Csr.mscratch then begin
    t.mscratch <- v;
    Some ()
  end
  else if a = Csr.mepc then begin
    t.mepc <- v land lnot 0x1;
    Some ()
  end
  else if a = Csr.mcause then begin
    t.mcause <- v;
    Some ()
  end
  else if a = Csr.mtval then begin
    t.mtval <- v;
    Some ()
  end
  else if a = Csr.mcycle then begin
    t.cycle <- (t.cycle land lnot 0xFFFF_FFFF) lor v;
    Some ()
  end
  else if a = Csr.minstret then begin
    t.instret <- (t.instret land lnot 0xFFFF_FFFF) lor v;
    Some ()
  end
  else None

let copy t =
  let c =
    { t with regs = Array.copy t.regs; fregs = Array.copy t.fregs;
      pin_and = Array.copy t.pin_and; pin_or = Array.copy t.pin_or }
  in
  c.time_source <- (fun () -> c.cycle);
  c

(* [hartid]/[misa] are structural (set once at machine construction),
   not architectural: a rewind must not re-number the hart it lands
   on, so like [time_source] they are left untouched.  So are the pins,
   which belong to the hart, not to the instant: the restored registers
   are held to them. *)
let restore dst src =
  Array.blit src.regs 0 dst.regs 0 32;
  Array.blit src.fregs 0 dst.fregs 0 32;
  dst.pc <- src.pc;
  dst.mstatus <- src.mstatus;
  dst.mie <- src.mie;
  dst.mip <- src.mip;
  dst.mtvec <- src.mtvec;
  dst.mscratch <- src.mscratch;
  dst.mepc <- src.mepc;
  dst.mcause <- src.mcause;
  dst.mtval <- src.mtval;
  dst.fcsr <- src.fcsr;
  dst.cycle <- src.cycle;
  dst.instret <- src.instret;
  dst.reservation <- src.reservation;
  hold_all dst
