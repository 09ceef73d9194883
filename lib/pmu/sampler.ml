type lbr_sample = { at_cycle : int; entries : Lbr.entry array }

type t = {
  lbr : Lbr.t;
  base_lbr_period : int;
  base_pebs_period : int;
  mutable next_lbr_sample : int;
  mutable samples : lbr_sample list; (* reversed *)
  mutable miss_count : int;
  mutable pebs_samples : int;
  delinquents : (int, int) Hashtbl.t;
  faults : Faults.t option;
}

let create ?(lbr_period = 20_000) ?(pebs_period = 64) ?(lbr_size = 32) ?faults
    () =
  if lbr_period <= 0 then invalid_arg "Sampler.create: lbr_period <= 0";
  if pebs_period <= 0 then invalid_arg "Sampler.create: pebs_period <= 0";
  {
    lbr = Lbr.create ~size:lbr_size ();
    base_lbr_period = lbr_period;
    base_pebs_period = pebs_period;
    next_lbr_sample = lbr_period;
    samples = [];
    miss_count = 0;
    pebs_samples = 0;
    delinquents = Hashtbl.create 64;
    faults;
  }

let lbr t = t.lbr

(* Adaptive throttling stretches both sampling periods by the fault
   model's cumulative backoff factor. Without faults (or before any
   throttle event) the effective period is the configured one. *)
let effective t base =
  match t.faults with
  | None -> base
  | Some f -> max base (int_of_float (float_of_int base *. Faults.backoff_factor f))

let current_lbr_period t = effective t t.base_lbr_period
let current_pebs_period t = effective t t.base_pebs_period

(* Re-arm for a fresh observation epoch: collected samples are cleared
   but the periods, ring and fault model (with its accumulated backoff
   and seeds) carry over, so a multi-epoch run draws the same fault
   stream a single long run would. [epoch_cycle] restarts the LBR
   period clock relative to the new epoch's cycle origin. *)
let reset ?(epoch_cycle = 0) t =
  t.next_lbr_sample <- epoch_cycle + current_lbr_period t;
  t.samples <- [];
  t.miss_count <- 0;
  t.pebs_samples <- 0;
  Hashtbl.reset t.delinquents

let on_branch t ~branch_pc ~target_pc ~cycle =
  let cycle =
    match t.faults with
    | Some f -> Faults.jitter_cycle f cycle
    | None -> cycle
  in
  Lbr.record t.lbr ~branch_pc ~target_pc ~cycle

(* Cold half of [on_cycle]: runs once per period boundary. *)
let take_lbr_sample t ~cycle =
  (match t.faults with
  | None ->
    t.samples <- { at_cycle = cycle; entries = Lbr.snapshot t.lbr } :: t.samples
  | Some f ->
    (* The PMI fires either way; the sample can then be rejected by
       the throttle or lost outright, and a surviving one may only
       capture a suffix of the ring. *)
    if Faults.throttle_admit f ~cycle && not (Faults.drop_lbr f) then begin
      let entries = Faults.truncate_ring f (Lbr.snapshot t.lbr) in
      t.samples <- { at_cycle = cycle; entries } :: t.samples
    end);
  (* Skip forward past [cycle]: long stalls may cross several
     boundaries but yield a single (unchanged) ring. *)
  let period = current_lbr_period t in
  while t.next_lbr_sample <= cycle do
    t.next_lbr_sample <- t.next_lbr_sample + period
  done

(* The horizon contract: [on_cycle] acts only once [cycle] reaches
   [next_due], so a core may skip every call before that; a charge of
   several cycles that crosses one boundary or more yields one sample
   at the post-advance cycle. [next_due] only moves forward, except
   through [reset]. *)
let[@inline] on_cycle t ~cycle =
  if cycle >= t.next_lbr_sample then take_lbr_sample t ~cycle

let next_due t = t.next_lbr_sample

let on_llc_miss t ~load_pc ~cycle =
  t.miss_count <- t.miss_count + 1;
  if t.miss_count mod current_pebs_period t = 0 then begin
    let record pc =
      t.pebs_samples <- t.pebs_samples + 1;
      let prev = Option.value ~default:0 (Hashtbl.find_opt t.delinquents pc) in
      Hashtbl.replace t.delinquents pc (prev + 1)
    in
    match t.faults with
    | None -> record load_pc
    | Some f ->
      if Faults.throttle_admit f ~cycle then record (Faults.skid_pc f load_pc)
  end

let lbr_samples t = List.rev t.samples

let delinquent_loads t =
  Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) t.delinquents []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let miss_samples t = t.pebs_samples

let fault_stats t = Option.map Faults.stats t.faults

let export_metrics t =
  let module M = Aptget_obs.Metrics in
  if M.enabled () then begin
    M.incr "sampler.runs";
    M.incr ~by:(List.length t.samples) "sampler.lbr_snapshots";
    M.incr ~by:t.pebs_samples "sampler.pebs_samples";
    M.incr ~by:t.miss_count "sampler.llc_misses";
    match fault_stats t with
    | None -> ()
    | Some s ->
      M.incr ~by:s.Faults.lbr_dropped "sampler.faults.lbr_dropped";
      M.incr ~by:s.Faults.lbr_truncated "sampler.faults.lbr_truncated";
      M.incr ~by:s.Faults.stamps_jittered "sampler.faults.stamps_jittered";
      M.incr ~by:s.Faults.pebs_skidded "sampler.faults.pebs_skidded";
      M.incr ~by:s.Faults.throttled "sampler.faults.throttled";
      M.set_gauge "sampler.faults.backoff_factor" s.Faults.backoff_factor
  end
