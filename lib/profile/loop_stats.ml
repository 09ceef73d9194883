module Sampler = Aptget_pmu.Sampler

(* Each statistic walks the sampler's snapshot log in place: one pass
   per snapshot over its entries, read through the log's accessors. *)

let iteration_times sampler ~latch_pc ~in_loop =
  let deltas =
    Sampler.fold_snapshots sampler ~init:[] (fun acc s ->
        let acc = ref acc in
        let last = ref (-1) in
        let clean = ref true in
        for i = 0 to Sampler.entry_count sampler s - 1 do
          let pc = Sampler.branch_pc sampler s i in
          if pc = latch_pc then begin
            if !last >= 0 && !clean then begin
              let delta =
                Sampler.cycle sampler s i - Sampler.cycle sampler s !last
              in
              if delta > 0 then acc := float_of_int delta :: !acc
            end;
            last := i;
            clean := true
          end
          else if not (in_loop pc) then clean := false
        done;
        !acc)
  in
  Array.of_list (List.rev deltas)

let trip_counts sampler ~inner_latch_pc ~outer_latch_pc =
  let trips =
    Sampler.fold_snapshots sampler ~init:[] (fun acc s ->
        let acc = ref acc in
        let in_window = ref false in
        let count = ref 0 in
        for i = 0 to Sampler.entry_count sampler s - 1 do
          let pc = Sampler.branch_pc sampler s i in
          if pc = outer_latch_pc then begin
            if !in_window then acc := float_of_int !count :: !acc;
            in_window := true;
            count := 0
          end
          else if !in_window && pc = inner_latch_pc then incr count
        done;
        !acc)
  in
  Array.of_list (List.rev trips)

let occurrences sampler ~pc =
  Sampler.fold_snapshots sampler ~init:0 (fun total s ->
      let n = ref total in
      for i = 0 to Sampler.entry_count sampler s - 1 do
        if Sampler.branch_pc sampler s i = pc then incr n
      done;
      !n)
