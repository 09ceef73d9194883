module Memory = Aptget_mem.Memory
module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler

type policy = Round_robin | Cycle_ratio of int list

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Cycle_ratio ws ->
    "cycle-ratio:" ^ String.concat "," (List.map string_of_int ws)

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "rr" | "round-robin" | "roundrobin" -> Some Round_robin
  | s when String.length s > 6 && String.sub s 0 6 = "ratio:" -> (
    let body = String.sub s 6 (String.length s - 6) in
    match
      List.map
        (fun w -> int_of_string (String.trim w))
        (String.split_on_char ',' body)
    with
    | ws when List.for_all (fun w -> w > 0) ws && ws <> [] ->
      Some (Cycle_ratio ws)
    | _ -> None
    | exception _ -> None)
  | _ -> None

type stream = {
  cs_name : string;
  cs_func : Ir.func;
  cs_mem : Memory.t;
  cs_args : int list;
  cs_sampler : Sampler.t option;
  cs_window_cycles : int option;
  cs_on_window : (Machine.window_report -> unit) option;
}

let stream ?(args = []) ?sampler ?window_cycles ?on_window ~name ~mem func =
  {
    cs_name = name;
    cs_func = func;
    cs_mem = mem;
    cs_args = args;
    cs_sampler = sampler;
    cs_window_cycles = window_cycles;
    cs_on_window = on_window;
  }

type stream_outcome = { so_name : string; so_outcome : Machine.outcome }

let run ?(config = Machine.default_config) ?engine ?(policy = Round_robin)
    streams =
  if streams = [] then invalid_arg "Corun.run: no streams";
  let engine =
    match engine with Some e -> e | None -> Machine.default_engine ()
  in
  let shared = Hierarchy.create_shared config.Machine.hierarchy in
  let sps =
    Array.of_list
      (List.mapi
         (fun i s ->
           let hier = Hierarchy.attach shared ~stream:i in
           ( s,
             Machine.make_stepper ~config ~engine ~hierarchy:hier
               ?sampler:s.cs_sampler ?window_cycles:s.cs_window_cycles
               ?on_window:s.cs_on_window ~args:s.cs_args ~mem:s.cs_mem
               s.cs_func ))
         streams)
  in
  let n = Array.length sps in
  (* The schedule reads only these arrays: a step and a liveness test
     per block, with no allocation. *)
  let steps = Array.map (fun (_, sp) -> sp.Machine.sp_step) sps in
  let live = Array.make n true in
  let remaining = ref n in
  let step i =
    if not ((Array.unsafe_get steps i) ()) then begin
      live.(i) <- false;
      decr remaining
    end
  in
  let schedule () =
    match policy with
    | Round_robin ->
      (* One block per turn, rotating over the live streams in attach
         order; finished streams drop out of the rotation. *)
      let idx = ref 0 in
      while !remaining > 0 do
        let i = !idx in
        if Array.unsafe_get live i then step i;
        idx := if i + 1 = n then 0 else i + 1
      done
    | Cycle_ratio weights ->
      List.iter
        (fun w ->
          if w <= 0 then
            invalid_arg "Corun.run: cycle-ratio weights must be positive")
        weights;
      let w =
        Array.init n (fun i ->
            match List.nth_opt weights i with Some x -> x | None -> 1)
      in
      let cycle = Array.map (fun (_, sp) -> sp.Machine.sp_cycle) sps in
      (* Advance the live stream with the smallest weighted cycle count
         (cycle / weight, compared cross-multiplied so everything stays
         in integers); ties go to the lowest stream index. Streams make
         progress proportional to their weights in simulated cycles. *)
      while !remaining > 0 do
        let best = ref (-1) and best_cycle = ref 0 in
        for i = n - 1 downto 0 do
          if Array.unsafe_get live i then begin
            let c = (Array.unsafe_get cycle i) () in
            if !best < 0 || c * w.(!best) <= !best_cycle * w.(i) then begin
              best := i;
              best_cycle := c
            end
          end
        done;
        step !best
      done
  in
  (* A stream that raises leaves the others mid-run: stop their
     producers before re-raising. *)
  (match schedule () with
  | () -> ()
  | exception e ->
    Array.iter (fun (_, sp) -> sp.Machine.sp_close ()) sps;
    raise e);
  Array.to_list
    (Array.map
       (fun (s, sp) ->
         { so_name = s.cs_name; so_outcome = sp.Machine.sp_finish () })
       sps)
