(* The snapshot log: every kept snapshot, appended in order to one
   buffer of native-endian 64-bit words. A snapshot is a two-word
   header [at_cycle; n] followed by n (branch_pc, target_pc, cycle)
   triples, oldest first. A [Bytes] buffer holds no pointers, so a
   retained profile costs a major collection one block to mark,
   whatever its size, and writing a snapshot allocates nothing until
   the buffer has to grow. *)
type snapshot = int (* word offset of the snapshot's header *)

let header_words = 2
let entry_words = 3

type t = {
  lbr : Lbr.t;
  base_lbr_period : int;
  base_pebs_period : int;
  mutable next_lbr_sample : int;
  mutable log : Bytes.t;
  mutable log_words : int; (* words in use *)
  mutable snapshots : int;
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
    log = Bytes.empty;
    log_words = 0;
    snapshots = 0;
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
  t.log_words <- 0;
  t.snapshots <- 0;
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

let[@inline] word log i = Int64.to_int (Bytes.get_int64_ne log (i lsl 3))
let[@inline] set_word log i v = Bytes.set_int64_ne log (i lsl 3) (Int64.of_int v)

(* Room for [words] more words, doubling the buffer when it is full. *)
let reserve t words =
  let needed = t.log_words + words in
  let cap = Bytes.length t.log lsr 3 in
  if needed > cap then begin
    let fresh = Bytes.create (max needed (max 1024 (2 * cap)) lsl 3) in
    Bytes.blit t.log 0 fresh 0 (t.log_words lsl 3);
    t.log <- fresh
  end

(* Append the newest [keep] entries of the ring as one snapshot. *)
let append t ~cycle ~keep =
  reserve t (header_words + (entry_words * keep));
  let log = t.log and lbr = t.lbr in
  let at = t.log_words in
  set_word log at cycle;
  set_word log (at + 1) keep;
  let first = Lbr.length lbr - keep in
  for i = 0 to keep - 1 do
    let w = at + header_words + (entry_words * i) in
    set_word log w (Lbr.branch_pc lbr (first + i));
    set_word log (w + 1) (Lbr.target_pc lbr (first + i));
    set_word log (w + 2) (Lbr.cycle lbr (first + i))
  done;
  t.log_words <- at + header_words + (entry_words * keep);
  t.snapshots <- t.snapshots + 1

(* Cold half of [on_cycle]: runs once per period boundary. *)
let take_lbr_sample t ~cycle =
  (match t.faults with
  | None -> append t ~cycle ~keep:(Lbr.length t.lbr)
  | Some f ->
    (* The PMI fires either way; the sample can then be rejected by
       the throttle or lost outright, and a surviving one may only
       capture a suffix of the ring. *)
    if Faults.throttle_admit f ~cycle && not (Faults.drop_lbr f) then
      append t ~cycle ~keep:(Faults.truncate_ring f (Lbr.length t.lbr)));
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

let snapshot_count t = t.snapshots

let at_cycle t s = word t.log s
let entry_count t s = word t.log (s + 1)

let fold_snapshots t ~init f =
  let rec go acc s =
    if s >= t.log_words then acc
    else go (f acc s) (s + header_words + (entry_words * entry_count t s))
  in
  go init 0

let entry_word t s i field =
  if i < 0 || i >= entry_count t s then
    invalid_arg "Sampler: entry index out of range";
  word t.log (s + header_words + (entry_words * i) + field)

let branch_pc t s i = entry_word t s i 0
let target_pc t s i = entry_word t s i 1
let cycle t s i = entry_word t s i 2

let delinquent_loads t =
  Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) t.delinquents []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let miss_samples t = t.pebs_samples

let fault_stats t = Option.map Faults.stats t.faults

let export_metrics t =
  let module M = Aptget_obs.Metrics in
  if M.enabled () then begin
    M.incr "sampler.runs";
    M.incr ~by:t.snapshots "sampler.lbr_snapshots";
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
