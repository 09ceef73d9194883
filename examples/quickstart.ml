(* Quickstart: write a kernel against the public API, watch APT-GET
   make it fast.

   The kernel is the classic irregular gather `sum += T[B[i]]`:
   hardware prefetchers cannot predict T's addresses, so the baseline
   stalls on DRAM; one profiling run finds the delinquent load, models
   its latency distribution, and injects a timely software prefetch.

   Run with: dune exec examples/quickstart.exe *)

module Memory = Aptget_mem.Memory
module Machine = Aptget_machine.Machine
module Profiler = Aptget_profile.Profiler
module Model = Aptget_profile.Model
module Pipeline = Aptget_core.Pipeline
module Workload = Aptget_workloads.Workload
module Rng = Aptget_util.Rng

let elements = 100_000
let table_words = 1 lsl 21 (* 16 MiB: far beyond the 2 MiB simulated LLC *)

(* 1. Lay the data out in simulated memory. *)
let build_instance () =
  let mem = Memory.create () in
  let b = Memory.alloc mem ~name:"B" ~words:elements in
  let t = Memory.alloc mem ~name:"T" ~words:table_words in
  let rng = Rng.create 42 in
  let indices = Array.init elements (fun _ -> Rng.int rng table_words) in
  Memory.blit_array mem b indices;
  Memory.blit_array mem t (Array.init table_words (fun i -> i * 7));
  (* 2. Express the kernel in the IR via the builder DSL. *)
  let bld = Builder.create ~name:"gather" ~nparams:3 in
  let b_base, t_base, n =
    match Builder.params bld with [ x; y; z ] -> (x, y, z) | _ -> assert false
  in
  let sums =
    Builder.for_loop_acc bld ~from:(Ir.Imm 0) ~bound:(`Op n) ~init:[ Ir.Imm 0 ]
      (fun bld i accs ->
        let idx = Builder.load bld (Builder.add bld b_base i) in
        let v = Builder.load bld (Builder.add bld t_base idx) in
        [ Builder.add bld (List.hd accs) v ])
  in
  Builder.ret bld (Some (List.hd sums));
  {
    Workload.mem;
    func = Builder.finish bld;
    args = [ b.Memory.base; t.Memory.base; elements ];
    (* Every run checks the kernel still returns sum T[B[i]]. *)
    verify =
      Workload.expect_ret (Array.fold_left (fun acc i -> acc + (i * 7)) 0 indices);
  }

let gather =
  Workload.make ~name:"gather" ~app:"gather" ~input:"100K" ~nested:false
    ~description:"sum += T[B[i]]" build_instance

let () =
  (* 3. One profiling run on the timing simulator. Every run builds a
     fresh instance, checks the IR and verifies the result; sampling
     does not perturb the simulation, so this run is the baseline. *)
  let base, prof = Pipeline.profiled gather in
  let base = Pipeline.verified_exn base in
  let b = base.Pipeline.outcome in
  Printf.printf "baseline:  %d cycles, IPC %.3f, %.1f MPKI\n"
    b.Machine.cycles (Machine.ipc b) (Machine.mpki b);

  (* 4. The profile: PEBS finds the delinquent load, the LBR yields its
     loop's latency distribution, Eq. (1) the distance. *)
  List.iter
    (fun (p : Profiler.load_profile) ->
      match p.Profiler.model with
      | Some m ->
        Printf.printf
          "profile:   load PC %d: peaks at [%s] cycles -> IC=%.0f MC=%.0f -> \
           distance %d\n"
          p.Profiler.load_pc
          (String.concat "; "
             (List.map (fun x -> Printf.sprintf "%.0f" x) m.Model.peaks))
          m.Model.ic_latency m.Model.mc_latency m.Model.distance
      | None -> Printf.printf "profile:   load PC %d: %s\n" p.Profiler.load_pc p.Profiler.note)
    prof.Profiler.profiles;

  (* 5. Inject and re-run. *)
  let opt =
    Pipeline.verified_exn (Pipeline.with_hints ~hints:prof.Profiler.hints gather)
  in
  let o = opt.Pipeline.outcome in
  Printf.printf "injected:  %d prefetch slice(s)\n"
    (List.length opt.Pipeline.injected);
  Printf.printf "APT-GET:   %d cycles, IPC %.3f, %.1f MPKI\n" o.Machine.cycles
    (Machine.ipc o) (Machine.mpki o);
  Printf.printf "speedup:   %.2fx (checksums match: %s)\n"
    (Pipeline.speedup ~baseline:base opt)
    (match o.Machine.ret with Some v -> string_of_int v | None -> "-")
