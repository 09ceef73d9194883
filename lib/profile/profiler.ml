module Machine = Aptget_machine.Machine
module Sampler = Aptget_pmu.Sampler
module Faults = Aptget_pmu.Faults
module Memory = Aptget_mem.Memory
module Loops = Aptget_passes.Loops
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject
module Stats = Aptget_util.Stats
module Slice = Aptget_passes.Slice
module Trace = Aptget_obs.Trace

type options = {
  machine : Machine.config;
  lbr_period : int;
  pebs_period : int;
  top_loads : int;
  min_share : float;
  k : int;
  max_distance : int;
  max_sweep : int;
  finder : Model.peak_finder;
  default_distance : int;
  max_overhead_frac : float;
  faults : Faults.config;
}

let default_options =
  {
    machine = Machine.default_config;
    lbr_period = 20_000;
    pebs_period = 64;
    top_loads = 8;
    min_share = 0.02;
    k = 5;
    max_distance = 128;
    max_sweep = 8;
    finder = Model.Cwt;
    default_distance = 1;
    max_overhead_frac = infinity;
    faults = Faults.none;
  }

type status =
  | Hinted
  | Fallback of string
  | Skipped of string

type load_profile = {
  load_pc : int;
  pebs_count : int;
  latch_pc : int;
  iteration_times : float array;
  trip_count : float option;
  outer_times : float array;
  model : Model.distance_model option;
  hint : Aptget_pass.hint option;
  status : status;
  note : string;
}

type t = {
  hints : Aptget_pass.hint list;
  profiles : load_profile list;
  lbr_snapshots : int;
  pebs_samples : int;
  baseline : Machine.outcome;
  fault_stats : Faults.stats option;
  fingerprint : Fingerprint.t;
}

(* Space-free so it fits in a [key=value] provenance field. Only the
   options that shape which hints come out are recorded — the machine
   model is the simulator's concern, not the profile's identity. *)
let options_summary o =
  Printf.sprintf "lbr:%d,pebs:%d,top:%d,k:%d,maxd:%d,maxs:%d" o.lbr_period
    o.pebs_period o.top_loads o.k o.max_distance o.max_sweep

let in_loop_pred (loop : Loops.loop) pc =
  List.mem (Layout.block_of_pc pc) loop.Loops.blocks

let no_hint ~load_pc ~pebs_count note =
  {
    load_pc;
    pebs_count;
    latch_pc = -1;
    iteration_times = [||];
    trip_count = None;
    outer_times = [||];
    model = None;
    hint = None;
    status = Skipped note;
    note;
  }

(* Loads whose address slice contains no other load are direct (stride)
   accesses: the hardware prefetcher covers them, and injecting a
   software prefetch only adds instruction overhead. Both the paper's
   pass and Ainsworth & Jones restrict themselves to indirect loads. *)
let is_indirect_load (f : Ir.func) ~load_pc =
  let bi = Layout.block_of_pc load_pc in
  match Layout.slot_of_pc load_pc with
  | `Term -> false
  | `Instr ii -> (
    match Slice.extract f ~block:bi ~index:ii with
    | Some s -> Slice.is_indirect s
    | None -> false)

let analyze_load (f : Ir.func) (loops : Loops.loop array) opts sampler ~load_pc
    ~pebs_count =
  let bi = Layout.block_of_pc load_pc in
  if not (is_indirect_load f ~load_pc) then
    no_hint ~load_pc ~pebs_count "direct access; left to the hardware prefetcher"
  else
  match Loops.loop_containing loops bi with
  | None -> no_hint ~load_pc ~pebs_count "delinquent load is not inside a loop"
  | Some li ->
    let inner = loops.(li) in
    let times =
      Loop_stats.iteration_times sampler ~latch_pc:inner.Loops.latch_pc
        ~in_loop:(in_loop_pred inner)
    in
    let trip_count, outer =
      match inner.Loops.parent with
      | None -> (None, None)
      | Some pi ->
        let outer = loops.(pi) in
        let trips =
          Loop_stats.trip_counts sampler ~inner_latch_pc:inner.Loops.latch_pc
            ~outer_latch_pc:outer.Loops.latch_pc
        in
        if Array.length trips = 0 then (None, Some outer)
        else (Some (Stats.mean trips), Some outer)
    in
    let model =
      Model.distance_of_times ~finder:opts.finder
        ~max_distance:opts.max_distance times
    in
    (match model with
    | None ->
      (* §3.6: too few (or degenerate) latency observations. When the
         load still samples heavily in PEBS we fall back to the default
         distance in the inner loop. *)
      let hint =
        Some
          {
            Aptget_pass.load_pc;
            distance = opts.default_distance;
            site = Inject.Inner;
            sweep = 1;
          }
      in
      {
        load_pc;
        pebs_count;
        latch_pc = inner.Loops.latch_pc;
        iteration_times = times;
        trip_count;
        outer_times = [||];
        model = None;
        hint;
        status =
          Fallback
            (Printf.sprintf
               "peak model degenerate (%d iteration samples); default \
                distance %d"
               (Array.length times) opts.default_distance);
        note = "no latency model; using default distance";
      }
    | Some m ->
      let site = Model.choose_site ~k:opts.k ~distance:m.Model.distance ~trip_count () in
      (match site with
      | `Inner ->
        {
          load_pc;
          pebs_count;
          latch_pc = inner.Loops.latch_pc;
          iteration_times = times;
          trip_count;
          outer_times = [||];
          model = Some m;
          hint =
            Some
              {
                Aptget_pass.load_pc;
                distance = m.Model.distance;
                site = Inject.Inner;
                sweep = 1;
              };
          status = Hinted;
          note = "inner-loop injection";
        }
      | `Outer ->
        (* Recompute the distance on the outer loop's latency
           distribution (§3.3). If the LBR never captured two outer
           back-edges, stay in the inner loop. *)
        let outer_times, outer_model =
          match outer with
          | None -> ([||], None)
          | Some o ->
            let ot =
              Loop_stats.iteration_times sampler ~latch_pc:o.Loops.latch_pc
                ~in_loop:(in_loop_pred o)
            in
            ( ot,
              Model.distance_of_times ~finder:opts.finder
                ~max_distance:opts.max_distance ot )
        in
        (match outer_model with
        | Some om ->
          let sweep =
            match trip_count with
            | Some tc ->
              max 1 (min opts.max_sweep (int_of_float (Float.round tc)))
            | None -> 1
          in
          {
            load_pc;
            pebs_count;
            latch_pc = inner.Loops.latch_pc;
            iteration_times = times;
            trip_count;
            outer_times;
            model = Some om;
            hint =
              Some
                {
                  Aptget_pass.load_pc;
                  distance = om.Model.distance;
                  site = Inject.Outer;
                  sweep;
                };
            status = Hinted;
            note = "outer-loop injection";
          }
        | None ->
          {
            load_pc;
            pebs_count;
            latch_pc = inner.Loops.latch_pc;
            iteration_times = times;
            trip_count;
            outer_times;
            model = Some m;
            hint =
              Some
                {
                  Aptget_pass.load_pc;
                  distance = m.Model.distance;
                  site = Inject.Inner;
                  sweep = 1;
                };
            status =
              Fallback
                "outer site chosen but outer latency unavailable; inner \
                 injection with the inner-loop distance";
            note = "outer site chosen but outer latency unavailable; inner";
          })))

(* §4.8 extension: estimate the per-iteration instruction overhead a
   hint's slice would add and drop hints that are predicted to cost
   more than they can recover. *)
let slice_length (f : Ir.func) ~load_pc =
  let bi = Layout.block_of_pc load_pc in
  match Layout.slot_of_pc load_pc with
  | `Term -> 0
  | `Instr ii -> (
    match Slice.extract f ~block:bi ~index:ii with
    | Some s -> List.length s.Slice.instrs + 4 (* future value + prefetch *)
    | None -> 0)

let overhead_filter opts (f : Ir.func) profiles =
  if opts.max_overhead_frac = infinity then profiles
  else
    List.map
      (fun p ->
        match (p.hint, p.model) with
        | Some h, Some m ->
          let slice = float_of_int (slice_length f ~load_pc:p.load_pc) in
          let per_iter =
            match h.Aptget_pass.site with
            | Inject.Inner -> slice
            | Inject.Outer -> (
              match p.trip_count with
              | Some t when t >= 1. ->
                slice *. float_of_int h.Aptget_pass.sweep /. t
              | _ -> slice)
          in
          if per_iter > opts.max_overhead_frac *. m.Model.ic_latency then begin
            let why =
              Printf.sprintf
                "hint dropped: predicted +%.0f instrs/iteration vs IC %.0f"
                per_iter m.Model.ic_latency
            in
            { p with hint = None; status = Skipped why; note = why }
          end
          else p
        | _ -> p)
      profiles

let filter_overhead opts f prof =
  let profiles = overhead_filter opts f prof.profiles in
  { prof with profiles; hints = List.filter_map (fun p -> p.hint) profiles }

(* The analysis of a profile, on any sampler that has already
   observed an execution of [f] — the one-shot profile runs the clean
   kernel; online re-fitting feeds the sampler that rode along a hinted
   run (the PCs in the resulting hints then address the *observed*
   program, and travel to a fresh build through the remap path). *)
let refit ?(options = default_options) ~baseline sampler (f : Ir.func) =
  let pebs_total = Sampler.miss_samples sampler in
  let loops = Loops.analyze f in
  let delinquents =
    Sampler.delinquent_loads sampler
    |> List.filter (fun (_, n) ->
           float_of_int n >= options.min_share *. float_of_int pebs_total
           && n >= 2)
    |> fun l ->
    List.filteri (fun i _ -> i < options.top_loads) l
  in
  let profiles =
    List.map
      (fun (load_pc, pebs_count) ->
        Trace.with_span ~name:"stage.peak-fit"
          ~attrs:[ ("load_pc", string_of_int load_pc) ]
          (fun () -> analyze_load f loops options sampler ~load_pc ~pebs_count))
      delinquents
    |> overhead_filter options f
  in
  let hints = List.filter_map (fun p -> p.hint) profiles in
  {
    hints;
    profiles;
    lbr_snapshots = Sampler.snapshot_count sampler;
    pebs_samples = pebs_total;
    baseline;
    fault_stats = Sampler.fault_stats sampler;
    fingerprint = Fingerprint.fingerprint f;
  }

let sampler options =
  (* An all-zero fault config gets no fault model at all, so a default
     profiling run is bit-identical to a fault-free one. *)
  let faults =
    if Faults.enabled options.faults then Some (Faults.create options.faults)
    else None
  in
  Sampler.create ~lbr_period:options.lbr_period
    ~pebs_period:options.pebs_period ?faults ()

let to_doc ?(options = default_options) t =
  let fp_at pc =
    List.find_opt
      (fun (l : Fingerprint.load_fp) -> l.Fingerprint.lf_pc = pc)
      t.fingerprint.Fingerprint.loads
  in
  {
    Hints_file.prov =
      Some
        {
          Hints_file.program = t.fingerprint.Fingerprint.program;
          schema = Hints_file.schema_version;
          options = options_summary options;
        };
    entries =
      List.map
        (fun (h : Aptget_pass.hint) ->
          { Hints_file.e_hint = h; e_fp = fp_at h.Aptget_pass.load_pc })
        t.hints;
  }

(* Hints may come from a stale checked-in file, or from a profile whose
   PEBS attribution skidded off the faulting load; both yield PCs that
   no longer (or never did) address a load in this program. Partition
   them out with a reason instead of letting the injection pass fail
   deep inside slice extraction. *)
let validate_hints (f : Ir.func) hints =
  List.partition_map
    (fun (h : Aptget_pass.hint) ->
      match Layout.instr_at f h.Aptget_pass.load_pc with
      | Some { Ir.kind = Ir.Load _; _ } -> Either.Left h
      | Some _ ->
        Either.Right
          ( h,
            Printf.sprintf
              "stale hint: PC %d no longer addresses a load in this program"
              h.Aptget_pass.load_pc )
      | None ->
        Either.Right
          ( h,
            Printf.sprintf "stale hint: PC %d is out of range for this program"
              h.Aptget_pass.load_pc ))
    hints
