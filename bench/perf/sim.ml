(* The three simulator workloads: advise-miss, advise-hit and corun.

   A pass is one full round of the workload's kernels. Every pass
   rebuilds every instance from the seeded parameters, so passes are
   independent and their wall times comparable; the metrics report
   medians over passes. *)

module W = Aptget_workloads
module Workload = W.Workload
module Machine = Aptget_machine.Machine
module Corun = Aptget_machine.Corun
module Profiler = Aptget_profile.Profiler
module Pipeline = Aptget_core.Pipeline
module Aptget_pass = Aptget_passes.Aptget_pass
module Hierarchy = Aptget_cache.Hierarchy

let span = Kernel.span
let fail = Kernel.fail

(* Kernel parameters come from the benchmark seed: seed 1 keeps each
   kernel's own default seed, so its inputs are the suite's. *)
let reseed seed base = base + (7919 * (seed - 1))

(* Iteration counts are a quarter of the suite's (a sixteenth for
   --smoke); table sizes are the suite's, so the working sets still
   exceed the 2 MiB LLC where the kernel is meant to miss. *)
let scale ~quick n = if quick then n / 16 else n / 4

let advise_miss ~quick ~seed =
  let n = scale ~quick and s = reseed seed in
  [
    W.Randacc.workload
      ~params:
        {
          W.Randacc.default_params with
          W.Randacc.updates = n W.Randacc.default_params.W.Randacc.updates;
          seed = s 31;
        }
      ~name:"randAcc" ();
    W.Is.workload
      ~params:
        {
          W.Is.class_b with
          W.Is.n_keys = n W.Is.class_b.W.Is.n_keys;
          seed = s W.Is.class_b.W.Is.seed;
        }
      ~name:"IS-B" ();
    W.Spmv.workload
      ~params:
        {
          W.Spmv.default_params with
          W.Spmv.rows = n W.Spmv.default_params.W.Spmv.rows;
          seed = s W.Spmv.default_params.W.Spmv.seed;
        }
      ~name:"spmv" ();
    W.Hashjoin.workload
      ~params:
        {
          W.Hashjoin.hj2_params with
          W.Hashjoin.n_probe = n W.Hashjoin.hj2_params.W.Hashjoin.n_probe;
          seed = s W.Hashjoin.hj2_params.W.Hashjoin.seed;
        }
      ~name:"HJ2-NPO" ();
  ]

let advise_hit ~quick ~seed =
  let n = scale ~quick and s = reseed seed in
  let phased =
    let p = W.Phased.default_params in
    (* one cold lead phase, then hot phases: the suite's shape, fewer
       hot phases *)
    let hot = if quick then 2 else 11 in
    {
      p with
      W.Phased.seed = s p.W.Phased.seed;
      phases =
        (W.Phased.Cold, 8_192)
        :: List.init hot (fun _ -> (W.Phased.Hot, 32_768));
    }
  in
  [
    W.Btree.workload
      ~params:
        {
          W.Btree.default_params with
          W.Btree.queries = n W.Btree.default_params.W.Btree.queries;
          seed = s W.Btree.default_params.W.Btree.seed;
        }
      ~name:"btree" ();
    W.Phased.workload ~params:phased ~name:"phased" ();
    W.Hashjoin.workload
      ~params:
        {
          W.Hashjoin.hj8_params with
          W.Hashjoin.n_probe = n W.Hashjoin.hj8_params.W.Hashjoin.n_probe;
          seed = s W.Hashjoin.hj8_params.W.Hashjoin.seed;
        }
      ~name:"HJ8-NPO" ();
  ]

(* The contention study's tenants and thrasher at its quick sizes
   (halved again for --smoke), under its bandwidth-bounded DRAM. *)
type pair = { tenant : Workload.t; corunner : Workload.t }

let corun_config =
  let h = Machine.default_config.Machine.hierarchy in
  {
    Machine.default_config with
    Machine.hierarchy = { h with Hierarchy.dram_min_gap = 24 };
  }

let corun_pairs ~quick ~seed =
  let d n = if quick then n / 2 else n and s = reseed seed in
  let thrash passes =
    W.Thrash.workload
      ~params:{ W.Thrash.words = 1 lsl 19; passes = d passes }
      ~name:"thrash" ()
  in
  [
    {
      tenant =
        W.Randacc.workload
          ~params:
            {
              W.Randacc.table_words = 1 lsl 20;
              updates = d 65_536;
              seed = s 31;
            }
          ~name:"randAcc-ct" ();
      corunner = thrash 4;
    };
    {
      tenant =
        W.Btree.workload
          ~params:{ W.Btree.levels = 4; queries = d 8_192; seed = s 11 }
          ~name:"btree-ct" ();
      corunner = thrash 8;
    };
  ]

(* ------------------------------------------------------------------ *)

type kernel_result = {
  kernel : Kernel.t;
  base : Machine.outcome;  (** unhinted run (for corun: under co-run) *)
  hinted : Machine.outcome;
}

let speedup r =
  float_of_int r.base.Machine.cycles /. float_of_int r.hinted.Machine.cycles

let inject (inst : Workload.instance) hints =
  let used, _stale = Profiler.validate_hints inst.Workload.func hints in
  span "passes.inject" (fun () ->
      ignore (Aptget_pass.run inst.Workload.func ~hints:used));
  span "ir.verify" (fun () -> Verify.check_exn inst.Workload.func)

(* advise-*: the whole APT-GET pipeline on one kernel. [ref_hints]
   are [Pipeline.profile]'s, taken in set-up: the split profile must
   reproduce them, and the sampled run must take exactly as many
   cycles as the unsampled baseline (sampling observes, never
   perturbs). *)
let advise_kernel (w, ref_hints) =
  let config = Machine.default_config in
  let k = Kernel.profile ~config w in
  if Kernel.hints k <> ref_hints then
    fail "%s: split profile hints differ from Pipeline.profile's"
      (Kernel.name k);
  let h = Kernel.build w in
  inject h (Kernel.hints k);
  let b = Kernel.build w in
  let base = span "machine.exec" (fun () -> Kernel.execute ~config b) in
  Kernel.verify ~what:(Kernel.name k ^ " baseline") b base;
  let sampled = k.Kernel.prof.Profiler.baseline.Machine.cycles in
  if base.Machine.cycles <> sampled then
    fail "%s: sampled run took %d cycles, unsampled %d" (Kernel.name k) sampled
      base.Machine.cycles;
  let hinted = span "machine.exec" (fun () -> Kernel.execute ~config h) in
  Kernel.verify ~what:(Kernel.name k ^ " hinted") h hinted;
  { kernel = k; base; hinted }

(* corun: the tenant next to its thrasher, unhinted and with the
   solo-tuned hints from set-up; both streams are checked. *)
let corun_with pair (ti : Workload.instance) =
  let ci = Kernel.build pair.corunner in
  let outs =
    span "machine.corun" (fun () ->
        Corun.run ~config:corun_config
          [
            Corun.stream ~args:ti.Workload.args ~name:pair.tenant.Workload.name
              ~mem:ti.Workload.mem ti.Workload.func;
            Corun.stream ~args:ci.Workload.args
              ~name:pair.corunner.Workload.name ~mem:ci.Workload.mem
              ci.Workload.func;
          ])
  in
  match outs with
  | [ t; c ] ->
    Kernel.verify ~what:(pair.tenant.Workload.name ^ " under co-run") ti
      t.Corun.so_outcome;
    Kernel.verify ~what:"co-runner" ci c.Corun.so_outcome;
    t.Corun.so_outcome
  | _ -> fail "co-run returned %d streams" (List.length outs)

let corun_kernel (pair, k) =
  let base = corun_with pair (Kernel.build pair.tenant) in
  let h = Kernel.build pair.tenant in
  inject h (Kernel.hints k);
  let hinted = corun_with pair h in
  { kernel = k; base; hinted }

(* ------------------------------------------------------------------ *)

type pass = {
  results : kernel_result list;
  attempted : int;
  failed : int;
  wall : float;
}

let run_pass f items =
  let (results, failed), wall =
    Report.timed (fun () ->
        span Kernel.op_span (fun () ->
            List.fold_left
              (fun (ok, failed) item ->
                match f item with
                | r -> (r :: ok, failed)
                | exception e ->
                  Report.info "FAILED: %s" (Kernel.failure_text e);
                  (ok, failed + 1))
              ([], 0) items))
  in
  { results = List.rev results; attempted = List.length items; failed; wall }

type setup = { run : unit -> pass; kernels : unit -> Kernel.t list }

(* Set-up takes [Pipeline.profile]'s hints for every kernel; corun
   also checks its split solo profiles against them here, since its
   passes reuse the solo hints rather than profile again. *)
let setup name ~quick ~seed =
  match name with
  | "advise-miss" | "advise-hit" ->
    let ws =
      if name = "advise-miss" then advise_miss ~quick ~seed
      else advise_hit ~quick ~seed
    in
    let items =
      List.map (fun w -> (w, (Pipeline.profile w).Profiler.hints)) ws
    in
    let last = ref [] in
    let run () =
      let p = run_pass advise_kernel items in
      last := List.map (fun r -> r.kernel) p.results;
      p
    in
    { run; kernels = (fun () -> !last) }
  | "corun" ->
    let items =
      List.map
        (fun pair ->
          let k = Kernel.profile ~config:corun_config pair.tenant in
          let reference =
            Pipeline.profile ~options:(Kernel.profile_options corun_config)
              pair.tenant
          in
          if Kernel.hints k <> reference.Profiler.hints then
            fail "%s: split profile hints differ from Pipeline.profile's"
              (Kernel.name k);
          (pair, k))
        (corun_pairs ~quick ~seed)
    in
    {
      run = (fun () -> run_pass corun_kernel items);
      kernels = (fun () -> List.map snd items);
    }
  | _ -> invalid_arg name

(* Passes fill the measured window: another pass starts only while the
   previous one would still end inside it. With [traced], passes
   alternate between untraced and traced, so the trace overhead is
   measured against untraced passes of the same run.

   Also returns the peak RSS after set-up and the first [rss_passes]
   passes. The process heap keeps growing slowly from pass to pass
   (freed instances leave holes behind), so a peak taken at the end
   would depend on how many passes the host was fast enough to run. *)
let rss_passes = 3

let measure ~seconds ~traced (s : setup) =
  let deadline = Report.now () +. seconds in
  let rss = ref nan in
  let rec go i acc =
    (* Every pass starts from a collected heap, so garbage instances of
       earlier passes do not slow it down. *)
    Gc.full_major ();
    let traced_pass = traced && i mod 2 = 1 in
    if traced_pass then Aptget_obs.Trace.enable ();
    let p = s.run () in
    Aptget_obs.Trace.disable ();
    if i + 1 = rss_passes then rss := Report.peak_rss_mb "self";
    let acc = (traced_pass, p) :: acc in
    if Report.now () +. p.wall <= deadline || i < (if traced then 2 else 1)
    then go (i + 1) acc
    else List.rev acc
  in
  let passes = go 0 [] in
  (passes, if Float.is_nan !rss then Report.peak_rss_mb "self" else !rss)

let speedups passes =
  List.concat_map (fun (_, p) -> List.map speedup p.results) passes

(* CRC-32 of every simulated outcome of one pass. *)
let crc p =
  Aptget_store.Crc32.string
    (String.concat ""
       (List.concat_map
          (fun r ->
            [ Kernel.outcome_text r.base; Kernel.outcome_text r.hinted ])
          p.results))
