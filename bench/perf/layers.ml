(* The traced run's per-layer numbers.

   Two sources, both measured from outside the library:
   - the spans the workloads open around each layer call during the
     traced operations: each layer's self time (its spans' wall minus
     the bench spans nested inside them) and its share of the
     operations' wall time;
   - layer micro-ops: each layer's public operation timed on this
     workload's kernels, or on seeded streams for the cache, memory,
     sampler and wire layers, reported as the median over blocks.
     Results are ignored and the simulated clock advances by a fixed
     step, so the micro-ops depend on no result type. *)

module Workload = Aptget_workloads.Workload
module Machine = Aptget_machine.Machine
module Profiler = Aptget_profile.Profiler
module Model = Aptget_profile.Model
module Sampler = Aptget_pmu.Sampler
module Hierarchy = Aptget_cache.Hierarchy
module Memory = Aptget_mem.Memory
module Histogram = Aptget_util.Histogram
module Rng = Aptget_util.Rng
module Peaks = Aptget_signal.Peaks
module Aptget_pass = Aptget_passes.Aptget_pass
module Frame = Aptget_serve.Frame
module Wire = Aptget_serve.Wire
module Trace = Aptget_obs.Trace

let metric = Report.metric
let median = Report.median
let timed = Report.timed

(* ------------------------------------------------------------------ *)
(* Span self times                                                     *)

let is_bench name = name = Kernel.op_span || List.mem name Kernel.layer_spans

(* Self wall seconds per bench span name, and the summed wall of the
   [op] roots. Library spans (pipeline stages, peak fits) are not
   layers of their own here: their time stays with the enclosing bench
   span. *)
let self_times (spans : Trace.span list) =
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let rec bench_parent = function
    | None -> None
    | Some id -> (
      match Hashtbl.find_opt by_id id with
      | Some p when is_bench p.Trace.name -> Some p
      | Some p -> bench_parent p.Trace.parent
      | None -> None)
  in
  let self = Hashtbl.create 16 in
  let get name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let add name v = Hashtbl.replace self name (get name +. v) in
  List.iter
    (fun (s : Trace.span) ->
      if is_bench s.Trace.name then begin
        add s.Trace.name s.Trace.wall_s;
        Option.iter
          (fun (p : Trace.span) -> add p.Trace.name (-.s.Trace.wall_s))
          (bench_parent s.Trace.parent)
      end)
    spans;
  let root =
    List.fold_left
      (fun acc (s : Trace.span) ->
        if s.Trace.name = Kernel.op_span then acc +. s.Trace.wall_s else acc)
      0. spans
  in
  (get, root)

(* Prints each layer's self time and share, and returns the share
   metrics and the overhead metric ([overhead] compares the median
   traced operation with the median untraced one of the same run). *)
let span_metrics ~overhead =
  let spans = Trace.spans () in
  let self, root = self_times spans in
  let share name = if root > 0. then self name /. root else 0. in
  Report.info "layer self time over %d span(s), %.3f s of operations:"
    (List.length spans) root;
  List.iter
    (fun name ->
      Report.info "  %-18s %10.1f ms  %5.1f%%" name (1e3 *. self name)
        (100. *. share name))
    (List.sort
       (fun a b -> Float.compare (self b) (self a))
       (Kernel.op_span :: Kernel.layer_spans));
  List.map
    (fun name -> metric (name ^ "_share") "frac" (share name))
    Kernel.layer_spans
  @ [ metric "obs.trace_overhead_frac" "frac" overhead ]

(* ------------------------------------------------------------------ *)
(* Synthetic micro-ops                                                 *)

let blocks = 5
let sink = ref 0

(* Median over [blocks] blocks of the cost of one call in ns, and of
   the minor words allocated per call. *)
let per_call ~calls op =
  let ns = ref [] and words = ref [] in
  for _ = 1 to blocks do
    let w0 = Gc.minor_words () in
    let t0 = Report.now () in
    for _ = 1 to calls do
      op ()
    done;
    let dt = Report.now () -. t0 in
    ns := (dt *. 1e9 /. float_of_int calls) :: !ns;
    words := ((Gc.minor_words () -. w0) /. float_of_int calls) :: !words
  done;
  (median !ns, median !words)

(* An endless replay of [addrs] (length a power of two). *)
let cycler addrs =
  let mask = Array.length addrs - 1 and k = ref 0 in
  fun () ->
    incr k;
    addrs.(!k land mask)

let lines_of rng ~n ~span_lines =
  Array.init n (fun _ -> Rng.int rng span_lines * Memory.words_per_line)

(* Demand loads replaying line addresses in a fixed order, sized for
   the level meant to serve them: 64 lines stay in L1; 2 Ki lines
   overflow L1 but fit L2; 16 Ki fit only the LLC; 256 Ki random lines
   of 4 Mi go to DRAM. Each call advances the clock 512 cycles, past
   any fill, so every load meets a quiet hierarchy. Returns the cost
   and the share of loads the intended level served. *)
let demand_loads rng (n, span_lines, served_by) =
  let h = Hierarchy.create Hierarchy.default_config in
  let next =
    cycler
      (if n = span_lines then
         Array.map (fun l -> l * Memory.words_per_line) (Rng.permutation rng n)
       else lines_of rng ~n ~span_lines)
  in
  let cycle = ref 0 in
  let op () =
    cycle := !cycle + 512;
    ignore (Hierarchy.demand_load h ~pc:0 ~addr:(next ()) ~cycle:!cycle)
  in
  for _ = 1 to n do
    op ()
  done;
  Hierarchy.reset_counters h;
  let cost = per_call ~calls:65_536 op in
  let c = Hierarchy.counters h in
  (cost, float_of_int (served_by c) /. float_of_int c.Hierarchy.demand_loads)

let levels =
  [
    ("l1", (64, 64, fun c -> c.Hierarchy.hits_l1));
    ("l2", (2048, 2048, fun c -> c.Hierarchy.hits_l2));
    ("llc", (16_384, 16_384, fun c -> c.Hierarchy.hits_llc));
    ("dram", (1 lsl 18, 1 lsl 22, fun c -> c.Hierarchy.dram_fills_demand));
  ]

(* Returns the metrics, the per-level demand-load cost and the cost of
   [Memory.get]. *)
let synthetic ~seed ~request ~response =
  let rng = Rng.create (seed + 0x5eed) in
  let loads =
    List.map
      (fun (name, level) ->
        let (ns, words), served = demand_loads rng level in
        Report.info
          "cache stream %-4s: %.1f ns/load, %.1f words/load, %.0f%% served \
           at %s"
          name ns words (100. *. served) name;
        (name, (ns, words)))
      levels
  in
  let load_ns name = fst (List.assoc name loads) in
  let load_words name = snd (List.assoc name loads) in
  let sw_prefetch =
    let h = Hierarchy.create Hierarchy.default_config in
    let next = cycler (lines_of rng ~n:(1 lsl 16) ~span_lines:(1 lsl 22)) in
    let cycle = ref 0 in
    per_call ~calls:65_536 (fun () ->
        cycle := !cycle + 512;
        Hierarchy.sw_prefetch h ~addr:(next ()) ~cycle:!cycle)
  in
  let words = 1 lsl 20 in
  let mem = Memory.create ~capacity_words:words () in
  let base = (Memory.alloc mem ~name:"bench" ~words).Memory.base in
  let word =
    cycler (Array.init (1 lsl 16) (fun _ -> base + Rng.int rng words))
  in
  let calls = 1 lsl 20 in
  let get =
    per_call ~calls (fun () -> sink := !sink lxor Memory.get mem (word ()))
  in
  let set = per_call ~calls (fun () -> Memory.set mem (word ()) !sink) in
  let sampler = Kernel.new_sampler () in
  let cycle = ref 0 in
  let tick () =
    cycle := !cycle + 4;
    !cycle
  in
  let on_branch =
    per_call ~calls (fun () ->
        let c = tick () in
        Sampler.on_branch sampler ~branch_pc:(c land 63)
          ~target_pc:((c + 4) land 63) ~cycle:c)
  in
  let on_cycle =
    per_call ~calls (fun () -> Sampler.on_cycle sampler ~cycle:(tick ()))
  in
  let on_llc_miss =
    per_call ~calls:(calls / 4) (fun () ->
        let c = tick () in
        Sampler.on_llc_miss sampler ~load_pc:(c land 7) ~cycle:c)
  in
  let ns name (v, _) = metric name "ns" v in
  let us name f =
    let ns, _ = per_call ~calls:2_000 (fun () -> ignore (f ())) in
    metric name "us" (1e-3 *. ns)
  in
  let framed = Frame.encode request in
  ( [
      metric "cache.demand_load_ns.l1" "ns" (load_ns "l1");
      metric "cache.demand_load_ns.l2" "ns" (load_ns "l2");
      metric "cache.demand_load_ns.llc" "ns" (load_ns "llc");
      metric "cache.demand_load_ns.dram" "ns" (load_ns "dram");
      metric "cache.demand_load_words.l1" "words" (load_words "l1");
      metric "cache.demand_load_words.dram" "words" (load_words "dram");
      ns "cache.sw_prefetch_ns" sw_prefetch;
      ns "mem.get_ns" get;
      ns "mem.set_ns" set;
      ns "pmu.on_branch_ns" on_branch;
      ns "pmu.on_cycle_ns" on_cycle;
      ns "pmu.on_llc_miss_ns" on_llc_miss;
      us "serve.frame_encode_us" (fun () -> Frame.encode request);
      us "serve.frame_decode_us" (fun () -> Frame.decode ~buf:framed ~pos:0);
      us "serve.wire_request_parse_us" (fun () -> Wire.body_of_string request);
      us "serve.wire_response_parse_us" (fun () ->
          Wire.response_of_string response);
    ],
    load_ns,
    fst get )

(* ------------------------------------------------------------------ *)
(* Kernel micro-ops                                                    *)

(* Kernel micro-ops run three blocks: each block simulates every kernel
   twice, and five would take longer than the rest of the traced run. *)
let kernel_blocks = 3

let histograms (k : Kernel.t) =
  List.filter_map
    (fun (lp : Profiler.load_profile) ->
      let t = lp.Profiler.iteration_times in
      if Array.length t >= 8 then Some t else None)
    k.Kernel.prof.Profiler.profiles

(* One block over every kernel: one build for the sampled run (whose
   IR then takes the injection) and one for the unsampled run, so no
   simulated run sees another's side effects. Returns the block's
   totals by name and the unhinted outcomes (the same in every
   block). *)
let kernel_block (kernels : Kernel.t list) =
  let totals = Hashtbl.create 16 in
  let total name = Option.value ~default:0. (Hashtbl.find_opt totals name) in
  let add name v = Hashtbl.replace totals name (total name +. v) in
  let time name f =
    let r, dt = timed f in
    add name dt;
    r
  in
  let outcomes =
    List.map
      (fun (k : Kernel.t) ->
        let config = k.Kernel.config in
        let build () =
          add "builds" 1.;
          time "build" k.Kernel.w.Workload.build
        in
        let p = build () in
        let func = p.Workload.func in
        time "fingerprint" (fun () -> ignore (Fingerprint.fingerprint func));
        let sampler = Kernel.new_sampler () in
        let po = time "sampled" (fun () -> Kernel.execute ~sampler ~config p) in
        time "verify" (fun () -> Kernel.verify ~what:(Kernel.name k) p po);
        let used, _ = Profiler.validate_hints func (Kernel.hints k) in
        time "inject" (fun () -> ignore (Aptget_pass.run func ~hints:used));
        time "ir_verify" (fun () -> Verify.check_exn func);
        let u = build () in
        let w0 = Gc.minor_words () in
        let uo = time "unsampled" (fun () -> Kernel.execute ~config u) in
        add "words" (Gc.minor_words () -. w0);
        Kernel.verify ~what:(Kernel.name k) u uo;
        time "refit" (fun () ->
            ignore
              (Profiler.refit
                 ~options:(Kernel.profile_options config)
                 ~baseline:k.Kernel.prof.Profiler.baseline k.Kernel.sampler
                 k.Kernel.func));
        List.iter
          (fun times ->
            add "models" 1.;
            time "model" (fun () -> ignore (Model.distance_of_times times));
            let counts =
              Histogram.counts (Histogram.of_samples ~bins:96 times)
            in
            time "cwt" (fun () -> ignore (Peaks.find_peaks_cwt counts)))
          (histograms k);
        uo)
      kernels
  in
  (total, outcomes)

(* The hinted outcome of every kernel, for the prefetch counters. *)
let hinted_outcomes (kernels : Kernel.t list) =
  List.map
    (fun (k : Kernel.t) ->
      let h = k.Kernel.w.Workload.build () in
      let used, _ = Profiler.validate_hints h.Workload.func (Kernel.hints k) in
      ignore (Aptget_pass.run h.Workload.func ~hints:used);
      let o = Kernel.execute ~config:k.Kernel.config h in
      Kernel.verify ~what:(Kernel.name k ^ " hinted") h o;
      o)
    kernels

let sum_counters = function
  | [] -> invalid_arg "sum_counters"
  | (o : Machine.outcome) :: rest ->
    List.fold_left
      (fun acc (o : Machine.outcome) ->
        Hierarchy.add_counters acc o.Machine.counters)
      o.Machine.counters rest

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Prints the three largest host costs of one simulated load: the
   hierarchy by serving level (stream cost x share of loads), the
   memory read behind every load, the sampler hooks of a profiling
   run, and the rest of execute (dispatch of the load and of the
   instructions around it). Returns the hierarchy's part. *)
let load_costs ~load_ns ~mem_get_ns ~exec_ns ~sampler_ns c =
  let loads = c.Hierarchy.demand_loads in
  let level (name, (_, _, served_by)) =
    ( Printf.sprintf "%s-served demand load" name,
      ratio (served_by c) loads *. load_ns name )
  in
  let by_level = List.map level levels in
  let cache = List.fold_left (fun a (_, v) -> a +. v) 0. by_level in
  let costs =
    by_level
    @ [
        ("simulated memory read (Memory.get)", mem_get_ns);
        ( "dispatch and the rest of execute",
          Float.max 0. (exec_ns -. cache -. mem_get_ns) );
        ("sampler hooks (profiling run only)", Float.max 0. sampler_ns);
      ]
  in
  Report.info "host cost of one simulated load (%.1f ns in execute):" exec_ns;
  List.iteri
    (fun i (what, ns) ->
      if i < 3 then Report.info "  top %d: %-36s %8.1f ns" (i + 1) what ns)
    (List.sort (fun (_, a) (_, b) -> Float.compare b a) costs);
  cache

let kernel_metrics ~load_ns ~mem_get_ns (kernels : Kernel.t list) =
  let runs = List.init kernel_blocks (fun _ -> kernel_block kernels) in
  let unhinted = snd (List.hd runs) in
  let med f = median (List.map (fun (total, _) -> f total) runs) in
  let cu = sum_counters unhinted in
  let ch = sum_counters (hinted_outcomes kernels) in
  let sum f = List.fold_left (fun a o -> a + f o) 0 unhinted in
  let instrs = sum (fun o -> o.Machine.instructions) in
  let cycles = sum (fun o -> o.Machine.cycles) in
  let loads = cu.Hierarchy.demand_loads in
  let per n x = x /. float_of_int (max 1 n) in
  let kernels_n = List.length kernels in
  (* median over blocks of [name]'s total, per call, times [scale] *)
  let each scale ~per_name name =
    med (fun total -> scale *. total name /. Float.max 1. (per_name total))
  in
  let ms = each 1e3 ~per_name:(fun _ -> float_of_int kernels_n) in
  let us_per_model = each 1e6 ~per_name:(fun t -> t "models") in
  let exec_ns = med (fun t -> 1e9 *. per loads (t "unsampled")) in
  let cache =
    load_costs ~load_ns ~mem_get_ns ~exec_ns
      ~sampler_ns:
        (med (fun t -> 1e9 *. per loads (t "sampled" -. t "unsampled")))
      cu
  in
  let attempts =
    ch.Hierarchy.sw_prefetch_issued + ch.Hierarchy.sw_prefetch_useless
    + ch.Hierarchy.sw_prefetch_dropped
  in
  let count n = float_of_int n in
  let over_kernels f = count (List.fold_left (fun a k -> a + f k) 0 kernels) in
  let prof (k : Kernel.t) = k.Kernel.prof in
  [
    metric "workloads.build_ms" "ms"
      (each 1e3 ~per_name:(fun t -> t "builds") "build");
    metric "workloads.verify_ms" "ms" (ms "verify");
    metric "ir.fingerprint_ms" "ms" (ms "fingerprint");
    metric "passes.inject_ms" "ms" (ms "inject");
    metric "ir.verify_ms" "ms" (ms "ir_verify");
    metric "profile.refit_ms" "ms" (ms "refit");
    metric "profile.distance_of_times_us" "us" (us_per_model "model");
    metric "signal.find_peaks_cwt_us" "us" (us_per_model "cwt");
    metric "machine.ns_per_instr" "ns"
      (med (fun t -> 1e9 *. per instrs (t "unsampled")));
    metric "machine.minor_words_per_instr" "words"
      (med (fun t -> per instrs (t "words")));
    metric "machine.minor_words_per_load" "words"
      (med (fun t -> per loads (t "words")));
    metric "pmu.sampled_over_unsampled" "x"
      (med (fun t -> t "sampled" /. t "unsampled"));
    metric "cache.share_est" "frac" (cache /. exec_ns);
    metric "cache.l1_frac" "frac" (ratio cu.Hierarchy.hits_l1 loads);
    metric "cache.l2_frac" "frac" (ratio cu.Hierarchy.hits_l2 loads);
    metric "cache.llc_frac" "frac" (ratio cu.Hierarchy.hits_llc loads);
    metric "cache.dram_frac" "frac"
      (ratio cu.Hierarchy.dram_fills_demand loads);
    metric "cache.hw_pf_issued" "count" (count cu.Hierarchy.hw_prefetch_issued);
    metric "cache.sw_pf_issued" "count" (count ch.Hierarchy.sw_prefetch_issued);
    metric "cache.sw_pf_late_frac" "frac" (Machine.late_prefetch_ratio ch);
    metric "cache.sw_pf_early_evict_frac" "frac" (Machine.early_evict_ratio ch);
    metric "cache.sw_pf_useless_frac" "frac"
      (ratio ch.Hierarchy.sw_prefetch_useless attempts);
    metric "cache.sw_pf_dropped" "count"
      (count ch.Hierarchy.sw_prefetch_dropped);
    metric "machine.instructions" "count" (count instrs);
    metric "machine.ipc" "instr/cycle" (ratio instrs cycles);
    metric "machine.mpki" "miss/kinstr"
      (1000. *. ratio cu.Hierarchy.offcore_demand_data_rd instrs);
    metric "machine.loads_per_instr" "frac" (ratio loads instrs);
    metric "pmu.lbr_snapshots" "count"
      (over_kernels (fun k -> (prof k).Profiler.lbr_snapshots));
    metric "pmu.pebs_samples" "count"
      (over_kernels (fun k -> (prof k).Profiler.pebs_samples));
    metric "profile.hints" "count"
      (over_kernels (fun k -> List.length (Kernel.hints k)));
  ]

(* Every per-layer metric of a traced run. The wire micro-ops parse a
   request re-advising the workload's first kernel with its hints, and
   an answer with [response_body]: a real answer for serve, the hints
   text otherwise. *)
let metrics ~seed ~overhead ~response_body kernels =
  let spans = span_metrics ~overhead in
  let k = List.hd kernels in
  let request =
    Wire.body_to_string
      (Wire.Run
         (Serve_load.request ~id:"bench-0001" ~tenant:"bench"
            ~workload:(Kernel.name k) (Kernel.hints_doc k)))
  in
  let response =
    Wire.response_to_string
      {
        Wire.rsp_id = "bench-0001";
        rsp_tenant = "bench";
        rsp_status = Wire.Ok_;
        rsp_reason = "";
        rsp_body = response_body;
      }
  in
  let synthetic, load_ns, mem_get_ns = synthetic ~seed ~request ~response in
  spans @ synthetic @ kernel_metrics ~load_ns ~mem_get_ns kernels
