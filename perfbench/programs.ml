(* Seeded input programs.

   Each generator takes a [Random.State.t] drawn from the workload
   seed and returns assembly source whose data (strings, matrices,
   permutations, constants) comes from that state, together with the
   exit status the program must produce.  The amount of work is fixed
   per program — only the values change with the seed — so host-time
   figures stay comparable across seeds while every seed is a fresh
   input.  The expected status is computed here, by an OCaml model of
   the kernel or by construction (self-checking kernels exit with 1). *)

type t = {
  name : string;
  source : string;
  expect : int;  (** exit status, as a 32-bit unsigned value *)
}

let mask32 = 0xFFFF_FFFF
let u32 x = x land mask32

let exit_with reg =
  Printf.sprintf "  li   t6, 0x00100000\n  sw   %s, 0(t6)\n  ebreak\n" reg

let words l = String.concat ", " (List.map string_of_int l)

let shuffle rs a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* call-heavy string/integer kernel, 120 iterations *)
let dhrystone rs =
  let k = Random.State.int rs 256 in
  let str =
    String.init 20 (fun _ -> Char.chr (0x41 + Random.State.int rs 26))
  in
  let arr = List.init 16 (fun _ -> Random.State.int rs 1000) in
  let expect = ref 0 in
  for i = 0 to 119 do
    expect := !expect + 1 + ((5 * i) lxor k land 255)
  done;
  { name = "dhrystone";
    expect = u32 !expect;
    source =
      Printf.sprintf
        {|
_start:
  li   sp, 0x80040000
  li   s0, 0
  li   s1, 120
  li   s5, 0
dhry_loop:
  la   a0, src_str
  la   a1, dst_str
  li   a2, 16
  call str_copy
  la   a0, src_str
  la   a1, dst_str
  li   a2, 16
  call str_cmp
  add  s5, s5, a0
  mv   a0, s0
  call int_mix
  add  s5, s5, a0
  la   a3, arr
  andi a4, s0, 15
  slli a4, a4, 2
  add  a3, a3, a4
  lw   a5, 0(a3)
  add  a5, a5, s5
  sw   a5, 0(a3)
  addi s0, s0, 1
  blt  s0, s1, dhry_loop
%s
str_copy:
  li   t0, 0
sc_loop:
  add  t1, a0, t0
  lbu  t2, 0(t1)
  add  t3, a1, t0
  sb   t2, 0(t3)
  addi t0, t0, 1
  blt  t0, a2, sc_loop
  ret
str_cmp:
  li   t0, 0
  li   t4, 1
scm_loop:
  add  t1, a0, t0
  lbu  t2, 0(t1)
  add  t3, a1, t0
  lbu  t5, 0(t3)
  beq  t2, t5, scm_ok
  li   t4, 0
scm_ok:
  addi t0, t0, 1
  blt  t0, a2, scm_loop
  mv   a0, t4
  ret
int_mix:
  slli t0, a0, 2
  add  t0, t0, a0
  li   t5, %d
  xor  t0, t0, t5
  andi a0, t0, 255
  ret
  .data
src_str:
  .ascii "%s"
dst_str:
  .space 20
arr:
  .word %s
|}
        (exit_with "s5") k str (words arr) }

(* xorshift mixing with a store/reload per iteration, 2000 iterations *)
let mix rs =
  let seed = Random.State.bits rs land 0x7FFF_FFFF in
  let a0 = ref seed in
  for s0 = 0 to 1999 do
    a0 := u32 (!a0 lxor s0);
    a0 := u32 (!a0 lxor (!a0 lsl 13));
    a0 := !a0 lxor (!a0 lsr 17);
    a0 := u32 (!a0 + !a0);
    if s0 land 7 = 0 then a0 := u32 (!a0 + 100)
  done;
  { name = "mix";
    expect = !a0;
    source =
      Printf.sprintf
        {|
_start:
  li   s0, 0
  li   s1, 2000
  li   a0, %d
  la   s2, scratch
mix_loop:
  andi a1, s0, 63
  slli a2, a1, 2
  add  a3, s2, a2
  xor  a0, a0, s0
  slli a4, a0, 13
  xor  a0, a0, a4
  srli a4, a0, 17
  xor  a0, a0, a4
  sw   a0, 0(a3)
  lw   a5, 0(a3)
  add  a0, a0, a5
  andi a6, s0, 7
  bnez a6, mix_skip
  addi a0, a0, 100
mix_skip:
  addi s0, s0, 1
  blt  s0, s1, mix_loop
%s
  .data
scratch:
  .space 256
|}
        seed (exit_with "a0") }

(* 6x6 integer matrix product, checksum of all entries *)
let matmul rs =
  let n = 6 in
  let a = Array.init (n * n) (fun _ -> Random.State.int rs 16) in
  let b = Array.init (n * n) (fun _ -> Random.State.int rs 16) in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        sum := !sum + (a.((i * n) + k) * b.((k * n) + j))
      done
    done
  done;
  { name = "matmul";
    expect = u32 !sum;
    source =
      Printf.sprintf
        {|
  .equ N, 6
_start:
  li   s4, 0
  li   s0, 0
  li   s3, N
mm_i:
  li   s1, 0
mm_j:
  li   s2, 0
  li   a7, 0
mm_k:
  li   a0, N
  mul  a1, s0, a0
  add  a1, a1, s2
  slli a1, a1, 2
  la   a2, mat_a
  add  a2, a2, a1
  lw   a3, 0(a2)
  mul  a4, s2, a0
  add  a4, a4, s1
  slli a4, a4, 2
  la   a5, mat_b
  add  a5, a5, a4
  lw   a6, 0(a5)
  mul  a3, a3, a6
  add  a7, a7, a3
  addi s2, s2, 1
  blt  s2, s3, mm_k
  add  s4, s4, a7
  addi s1, s1, 1
  blt  s1, s3, mm_j
  addi s0, s0, 1
  blt  s0, s3, mm_i
%s
  .data
mat_a:
  .word %s
mat_b:
  .word %s
|}
        (exit_with "s4")
        (words (Array.to_list a))
        (words (Array.to_list b)) }

let crc32_model bytes =
  let crc = ref mask32 in
  List.iter
    (fun byte ->
      crc := !crc lxor byte;
      for _ = 1 to 8 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320
               else !crc lsr 1
      done)
    bytes;
  u32 (lnot !crc)

(* bit-serial CRC-32 over a 24-byte message *)
let crc32 rs =
  let msg = List.init 24 (fun _ -> Random.State.int rs 256) in
  { name = "crc32";
    expect = crc32_model msg;
    source =
      Printf.sprintf
        {|
_start:
  li   s0, 0
  li   s1, 24
  li   a0, -1
  li   s3, 0xedb88320
  li   a4, 8
crc_byte:
  la   a1, msg
  add  a1, a1, s0
  lbu  a2, 0(a1)
  xor  a0, a0, a2
  li   s2, 0
crc_bit:
  andi a3, a0, 1
  srli a0, a0, 1
  beqz a3, crc_noxor
  xor  a0, a0, s3
crc_noxor:
  addi s2, s2, 1
  blt  s2, a4, crc_bit
  addi s0, s0, 1
  blt  s0, s1, crc_byte
  not  a0, a0
%s
  .data
msg:
  .byte %s
|}
        (exit_with "a0") (words msg) }

(* bubble sort of a seeded permutation; exits 1 iff the result is sorted *)
let sort rs =
  let data = Array.init 16 (fun i -> i + 1) in
  shuffle rs data;
  { name = "sort";
    expect = 1;
    source =
      Printf.sprintf
        {|
_start:
  li   s0, 0
  li   s1, 15
outer:
  li   s2, 0
inner:
  la   a0, data
  slli a1, s2, 2
  add  a0, a0, a1
  lw   a2, 0(a0)
  lw   a3, 4(a0)
  ble  a2, a3, no_swap
  sw   a3, 0(a0)
  sw   a2, 4(a0)
no_swap:
  addi s2, s2, 1
  blt  s2, s1, inner
  addi s0, s0, 1
  blt  s0, s1, outer
  li   a0, 1
  li   s2, 0
check:
  la   a1, data
  slli a2, s2, 2
  add  a1, a1, a2
  lw   a3, 0(a1)
  lw   a4, 4(a1)
  ble  a3, a4, ok
  li   a0, 0
ok:
  addi s2, s2, 1
  blt  s2, s1, check
%s
  .data
data:
  .word %s
|}
        (exit_with "a0")
        (words (Array.to_list data)) }

(* STREAM-style copy + checksum over 1 KiB, 40 passes; exits 1 iff the
   checksum matches *)
let stream rs =
  let v = 1 + Random.State.int rs 15 in
  { name = "stream";
    expect = 1;
    source =
      Printf.sprintf
        {|
_start:
  la   a0, src
  li   s2, 0
  li   s3, 256
  li   a2, %d
fill:
  sw   a2, 0(a0)
  addi a0, a0, 4
  addi s2, s2, 1
  blt  s2, s3, fill
  li   s0, 0
  li   s1, 40
  li   s5, 0
pass:
  la   a0, src
  la   a1, dst
  li   s2, 0
  li   s3, 256
copy:
  lw   a2, 0(a0)
  sw   a2, 0(a1)
  add  s5, s5, a2
  lw   a3, 4(a0)
  sw   a3, 4(a1)
  add  s5, s5, a3
  addi a0, a0, 8
  addi a1, a1, 8
  addi s2, s2, 2
  blt  s2, s3, copy
  addi s0, s0, 1
  blt  s0, s1, pass
  li   a0, 0
  li   a1, %d
  bne  s5, a1, done
  li   a0, 1
done:
%s
  .data
src:
  .space 1024
dst:
  .space 1024
|}
        v (40 * 256 * v) (exit_with "a0") }

(* pointer chase over a seeded 64-node cycle, 25600 dependent loads;
   exits 1 iff the chase ends on the start node *)
let pchase rs =
  let order = Array.init 64 Fun.id in
  shuffle rs order;
  let next = Array.make 64 0 in
  Array.iteri (fun i node -> next.(node) <- order.((i + 1) mod 64)) order;
  { name = "pchase";
    expect = 1;
    source =
      Printf.sprintf
        {|
_start:
  la   a0, ring
  la   a3, next
  li   s2, 0
  li   s3, 64
init:
  slli a1, s2, 4
  add  a1, a1, a0
  slli a4, s2, 2
  add  a4, a4, a3
  lw   a2, 0(a4)
  slli a2, a2, 4
  add  a2, a2, a0
  sw   a2, 0(a1)
  addi s2, s2, 1
  blt  s2, s3, init
  la   s4, ring
  li   s2, 0
  li   s3, 25600
chase:
  lw   s4, 0(s4)
  lw   s4, 0(s4)
  lw   s4, 0(s4)
  lw   s4, 0(s4)
  addi s2, s2, 4
  blt  s2, s3, chase
  la   a1, ring
  li   a0, 0
  bne  s4, a1, done
  li   a0, 1
done:
%s
  .data
next:
  .word %s
ring:
  .space 1024
|}
        (exit_with "a0")
        (words (Array.to_list next)) }

let branchy_model ~x ~r =
  let s0 = ref 0 and s1 = ref 0 in
  let signed v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v in
  for t0 = 60000 downto 1 do
    if t0 land 7 = 0 then s1 := u32 (!s1 + r) else s0 := u32 (!s0 + 3);
    if t0 land 1 = 0 then s0 := !s0 lxor x;
    if t0 land 15 = 0 then s1 := u32 (!s1 + !s0);
    if not (signed !s0 < 100000) then s0 := u32 (signed !s0 asr 1)
  done;
  u32 (!s0 + !s1)

(* branch-dense loop with biased conditions, 60000 iterations *)
let branchy rs =
  let x = 1 + Random.State.int rs 2047 in
  let r = 1 + Random.State.int rs 15 in
  { name = "branchy";
    expect = branchy_model ~x ~r;
    source =
      Printf.sprintf
        {|
_start:
  li   s0, 0
  li   s1, 0
  li   s2, 100000
  li   t0, 60000
loop:
  andi t1, t0, 7
  beqz t1, rare
  addi s0, s0, 3
  j    join
rare:
  addi s1, s1, %d
join:
  andi t2, t0, 1
  bnez t2, odd
  xori s0, s0, %d
odd:
  andi t3, t0, 15
  bnez t3, nostore
  lui  t4, 0x00200
  addi t4, t4, 0x180
  sw   s0, 0(t4)
  lw   t5, 0(t4)
  add  s1, s1, t5
nostore:
  slt  t4, s0, s2
  bnez t4, next
  srai s0, s0, 1
next:
  addi t0, t0, -1
  bnez t0, loop
  add  a0, s0, s1
%s|}
        r x (exit_with "a0") }

(* The run-suite programs, in suite order.  One state per program, split
   off the workload seed in a fixed order, so adding a program never
   changes the inputs of the others. *)
let suite ~seed =
  let base = Random.State.make [| seed; 0x5c4e |] in
  List.map
    (fun gen -> gen (Random.State.split base))
    [ dhrystone; mix; matmul; crc32; sort; stream; pchase; branchy ]

let find ~seed name = List.find (fun p -> p.name = name) (suite ~seed)
