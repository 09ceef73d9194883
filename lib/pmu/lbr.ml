(* Struct-of-arrays ring: [record] fires on every taken branch of every
   simulated run, so it must not allocate. Three int arrays take three
   unboxed stores per branch, and the readers below index them in place
   once per sampling period. *)
type t = {
  branch_pcs : int array;
  target_pcs : int array;
  cycles : int array;
  ring_size : int;
  mutable head : int; (* next slot to write *)
  mutable filled : int;
}

let create ?(size = 32) () =
  if size <= 0 then invalid_arg "Lbr.create: size <= 0";
  {
    branch_pcs = Array.make size (-1);
    target_pcs = Array.make size (-1);
    cycles = Array.make size (-1);
    ring_size = size;
    head = 0;
    filled = 0;
  }

let size t = t.ring_size

let record t ~branch_pc ~target_pc ~cycle =
  let h = t.head in
  Array.unsafe_set t.branch_pcs h branch_pc;
  Array.unsafe_set t.target_pcs h target_pc;
  Array.unsafe_set t.cycles h cycle;
  t.head <- (if h + 1 = t.ring_size then 0 else h + 1);
  if t.filled < t.ring_size then t.filled <- t.filled + 1

let length t = t.filled

(* The ring slot of the [i]-th oldest entry: the oldest sits [filled]
   slots behind [head]. *)
let slot t i =
  if i < 0 || i >= t.filled then invalid_arg "Lbr: entry index out of range";
  let j = t.head - t.filled + i in
  if j < 0 then j + t.ring_size else j

let branch_pc t i = Array.unsafe_get t.branch_pcs (slot t i)
let target_pc t i = Array.unsafe_get t.target_pcs (slot t i)
let cycle t i = Array.unsafe_get t.cycles (slot t i)

let clear t =
  t.head <- 0;
  t.filled <- 0
