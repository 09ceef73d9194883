(* Custom kernel from IR text: write the kernel as text (the format
   Printer emits), parse it, run it, profile it, optimise it.

   The kernel is a two-level indirection A[B[C[i]]] — one level deeper
   than the quickstart — showing that slice extraction follows
   arbitrary chains of intermediate loads.

   Run with: dune exec examples/custom_kernel.exe *)

module Memory = Aptget_mem.Memory
module Machine = Aptget_machine.Machine
module Pipeline = Aptget_core.Pipeline
module Profiler = Aptget_profile.Profiler
module Workload = Aptget_workloads.Workload
module Rng = Aptget_util.Rng

let kernel_text =
  {|
func double_indirect(%0, %1, %2, %3):
b0:
  jmp b1
b1:
  %4 = phi [b0: 0] [b2: %12]
  %5 = phi [b0: 0] [b2: %13]
  %6 = icmp lt %4, %3
  br %6, b2, b3
b2:
  %7 = add %0, %4
  %8 = load [%7]
  %9 = add %1, %8
  %10 = load [%9]
  %11 = add %2, %10
  %14 = load [%11]
  %13 = add %5, %14
  %12 = add %4, 1
  jmp b1
b3:
  ret %5
|}

let elements = 65_536
let table_words = 1 lsl 21

let build () =
  let f = Parser.func_exn kernel_text in
  let mem = Memory.create () in
  let c = Memory.alloc mem ~name:"C" ~words:elements in
  let b = Memory.alloc mem ~name:"B" ~words:elements in
  let t = Memory.alloc mem ~name:"A" ~words:table_words in
  ignore (Memory.alloc mem ~name:"guard" ~words:8192);
  let rng = Rng.create 99 in
  let cs = Array.init elements (fun _ -> Rng.int rng elements) in
  let bs = Array.init elements (fun _ -> Rng.int rng table_words) in
  Memory.blit_array mem c cs;
  Memory.blit_array mem b bs;
  Memory.blit_array mem t (Array.init table_words (fun i -> i land 255));
  {
    Workload.mem;
    func = f;
    args = [ c.Memory.base; b.Memory.base; t.Memory.base; elements ];
    verify =
      Workload.expect_ret
        (Array.fold_left (fun acc ci -> acc + (bs.(ci) land 255)) 0 cs);
  }

let double_indirect =
  Workload.make ~name:"double_indirect" ~app:"custom" ~input:"64K"
    ~nested:false ~description:"sum += A[B[C[i]]]" build

let () =
  print_endline "parsed kernel:";
  print_string (Printer.func_to_string (double_indirect.Workload.build ()).Workload.func);
  let base, prof = Pipeline.profiled double_indirect in
  let base = Pipeline.verified_exn base in
  Printf.printf "\nbaseline: %d cycles, IPC %.3f\n"
    base.Pipeline.outcome.Machine.cycles
    (Machine.ipc base.Pipeline.outcome);
  let opt =
    Pipeline.verified_exn
      (Pipeline.with_hints ~hints:prof.Profiler.hints double_indirect)
  in
  Printf.printf "injected %d prefetch slice(s) for the A[B[C[i]]] chain\n"
    (List.length opt.Pipeline.injected);
  Printf.printf "APT-GET:  %d cycles, IPC %.3f -> %.2fx (checksums match)\n"
    opt.Pipeline.outcome.Machine.cycles
    (Machine.ipc opt.Pipeline.outcome)
    (Pipeline.speedup ~baseline:base opt)
