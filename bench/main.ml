(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's per-experiment index).

   Usage:
     dune exec bench/main.exe                 -- all experiments, full size
     dune exec bench/main.exe -- --quick      -- reduced sizes (<1 min)
     dune exec bench/main.exe -- fig6 fig8    -- selected experiments
     dune exec bench/main.exe -- --jobs 4     -- fan simulations over 4 domains
                                                 (default: APTGET_JOBS, then
                                                 the machine's domain count)
     dune exec bench/main.exe -- --trace t.ndjson --metrics m.json
                                              -- observability sidecars
                                                 (BENCH JSON is unchanged)
     dune exec bench/main.exe -- --engine interp
                                              -- pick the simulator engine
                                                 (compiled | interp); BENCH
                                                 JSON is byte-identical
                                                 across engines modulo
                                                 wall/throughput fields
     dune exec bench/main.exe -- --engine-bench
                                              -- per-engine simulated
                                                 Mcycles/sec comparison
                                                 table (quick sizes)
*)

module Experiments = Aptget_experiments
module Lab = Experiments.Lab
module Registry = Experiments.Registry
module Machine = Aptget_machine.Machine

(* ------------------------------------------------------------------ *)
(* Machine-readable results: one BENCH_<id>.json per experiment, with
   the experiment's wall time and the headline per-workload numbers
   (speedup, MPKI reduction) measured so far. Hand-rolled JSON — the
   shape is flat and fixed, and it keeps the harness dependency-free. *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_bench_json lab (e : Registry.experiment) ~wall_seconds
    ~throughput_mcycles_per_sec =
  let path = Printf.sprintf "BENCH_%s.json" e.Registry.id in
  let workloads =
    Lab.summary lab
    |> List.map (fun (name, speedup, mpki_reduction) ->
           Printf.sprintf
             "    {\"name\": \"%s\", \"speedup\": %.6f, \"mpki_reduction\": \
              %.6f}"
             (json_escape name) speedup mpki_reduction)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"experiment\": \"%s\",\n\
        \  \"title\": \"%s\",\n\
        \  \"wall_seconds\": %.3f,\n\
        \  \"throughput_mcycles_per_sec\": %.3f,\n\
        \  \"workloads\": [\n\
         %s\n\
        \  ]\n\
         }\n"
        (json_escape e.Registry.id)
        (json_escape e.Registry.title)
        wall_seconds throughput_mcycles_per_sec
        (String.concat ",\n" workloads))

(* Simulator throughput over an experiment: simulated cycles per
   second of time spent inside [Machine.execute], from the process-wide
   accumulators (deltas, so per-experiment). Like [wall_seconds], this
   is a measurement of this run's machine and is excluded from BENCH
   byte-diffs in CI. *)
let with_throughput f =
  let c0 = Machine.total_simulated_cycles () in
  let s0 = Machine.total_execute_seconds () in
  let r = f () in
  let dc = Machine.total_simulated_cycles () - c0 in
  let ds = Machine.total_execute_seconds () -. s0 in
  let tp = if ds > 0. then float_of_int dc /. 1e6 /. ds else 0. in
  (r, tp)

(* ------------------------------------------------------------------ *)
(* Engine microbench (--engine-bench): run each experiment's pipeline
   once per engine on quick-size inputs and report simulated
   Mcycles/sec plus the compiled engine's speedup. CI uploads this
   table as an artifact.                                               *)

let run_engine_bench ids =
  let engines = [ Machine.Interp; Machine.Compiled ] in
  let experiments =
    match ids with
    | [] -> Registry.all
    | ids -> List.filter_map Registry.find ids
  in
  Printf.printf "%-16s %14s %14s %9s\n" "experiment" "interp Mc/s"
    "compiled Mc/s" "speedup";
  Printf.printf "%s\n" (String.make 57 '-');
  List.iter
    (fun (e : Registry.experiment) ->
      let rates =
        List.map
          (fun engine ->
            Machine.set_default_engine engine;
            let lab = Lab.create ~quick:true () in
            let (), tp = with_throughput (fun () -> ignore (e.Registry.run lab)) in
            tp)
          engines
      in
      match rates with
      | [ interp; compiled ] ->
        Printf.printf "%-16s %14.1f %14.1f %8.2fx\n%!" e.Registry.id interp
          compiled
          (if interp > 0. then compiled /. interp else 0.)
      | _ -> ())
    experiments

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args = List.filter (fun a -> a <> "--") args in
  (* --jobs/--trace/--metrics consume their operand too, so they must be
     stripped before the remaining non-dash arguments are read as
     experiment ids. *)
  let rec extract_opt name = function
    | [] -> ([], None)
    | flag :: v :: rest when flag = name ->
      let rest, _ = extract_opt name rest in
      (rest, Some v)
    | a :: rest ->
      let rest, j = extract_opt name rest in
      (a :: rest, j)
  in
  let args, jobs = extract_opt "--jobs" args in
  let args, trace = extract_opt "--trace" args in
  let args, metrics = extract_opt "--metrics" args in
  let args, engine = extract_opt "--engine" args in
  Option.iter
    (fun j -> Aptget_util.Pool.set_default_jobs (Some j))
    (Option.bind jobs int_of_string_opt);
  Option.iter
    (fun e ->
      match Machine.engine_of_string e with
      | Some e -> Machine.set_default_engine e
      | None ->
        Printf.eprintf
          "unknown engine %s; known: interp, compiled\n" e;
        exit 2)
    engine;
  Aptget_obs.Obs.install ?trace ?metrics ();
  let quick =
    List.mem "--quick" args || Sys.getenv_opt "APTGET_BENCH_QUICK" <> None
  in
  let engine_bench = List.mem "--engine-bench" args in
  let ids = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  if engine_bench then run_engine_bench ids
  else begin
    let lab = Lab.create ~quick () in
    let experiments =
      match ids with
      | [] -> Registry.all
      | ids ->
        List.map
          (fun id ->
            match Registry.find id with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %s; known: %s\n" id
                (String.concat ", "
                   (List.map (fun e -> e.Registry.id) Registry.all));
              exit 2)
          ids
    in
    Printf.printf
      "APT-GET reproduction harness (%s mode; see DESIGN.md for the \
       experiment index)\n\n%!"
      (if quick then "quick" else "full");
    List.iter
      (fun (e : Registry.experiment) ->
        Printf.printf "== %s: %s ==\n%!" e.Registry.id e.Registry.title;
        let (tables, wall_seconds), throughput_mcycles_per_sec =
          with_throughput (fun () -> Registry.run_timed lab e)
        in
        List.iter Aptget_util.Table.print tables;
        Printf.printf "(%s finished in %.1fs wall)\n\n%!" e.Registry.id
          wall_seconds;
        write_bench_json lab e ~wall_seconds ~throughput_mcycles_per_sec)
      experiments
  end
