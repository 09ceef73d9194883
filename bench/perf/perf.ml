(* The repository benchmark: APT-GET's advise pipeline end to end and
   layer by layer.

   Usage (from the repository root):
     dune exec bench/perf/perf.exe -- --workload W [--seed N]
         [--seconds S] [--trace 0|1] [--ndjson FILE]
     dune exec bench/perf/perf.exe -- --workload all
     dune exec bench/perf/perf.exe -- --smoke

   W is advise-miss, advise-hit, corun or serve (bench/perf/README.md
   says why each exists). An untraced run prints the end-to-end
   metrics; --trace 1 prints the per-layer metrics instead, from a run
   whose operations alternate between untraced and traced, followed by
   the layer micro-ops. Each metric is printed as [name value unit];
   the last line is one JSON object with the same metrics and the
   correctness verdict. Any failed check makes the exit code 1. *)

let workloads = [ "advise-miss"; "advise-hit"; "corun"; "serve" ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  ndjson : string option;
  quick : bool;
}

let metric = Report.metric

(* Trace overhead: median traced operation time over median untraced. *)
let overhead ~traced ~untraced =
  match (traced, untraced) with
  | [], _ | _, [] -> 0.
  | t, u -> (Report.median t /. Report.median u) -. 1.

(* Set-up runs three times and reports the median; once for --smoke. *)
let setup_reps o = if o.quick then 1 else 3

let run_sim o =
  let setup, setup_s =
    Report.repeat_setup ~reps:(setup_reps o) ~discard:ignore (fun () ->
        Sim.setup o.workload ~quick:o.quick ~seed:o.seed)
  in
  let passes, rss = Sim.measure ~seconds:o.seconds ~traced:o.trace setup in
  let sum f = List.fold_left (fun a (_, p) -> a + f p) 0 passes in
  let failed = sum (fun p -> p.Sim.failed) in
  let crcs = List.map (fun (_, p) -> Sim.crc p) passes in
  let deterministic = List.for_all (( = ) (List.hd crcs)) crcs in
  if not deterministic then
    Report.info "FAILED: simulated counters differ between passes";
  Report.info "simulated counters crc32 %s over %d pass(es)"
    (Aptget_store.Crc32.hex (List.hd crcs))
    (List.length passes);
  let walls traced =
    List.filter_map
      (fun (t, p) -> if t = traced then Some p.Sim.wall else None)
      passes
  in
  let kernels = setup.Sim.kernels () in
  let metrics =
    if o.trace then
      Layers.metrics ~seed:o.seed
        ~overhead:(overhead ~traced:(walls true) ~untraced:(walls false))
        ~response_body:
          (Aptget_profile.Hints_file.to_string (Kernel.hints (List.hd kernels)))
        kernels
    else
      let ms = List.map (fun w -> 1e3 *. w) (walls false) in
      Report.info "%d pass(es): p50 %.1f ms, p90 %.1f ms" (List.length ms)
        (Report.median ms) (Report.percentile ms 90.);
      [
        metric "setup_s" "s" setup_s;
        metric "op_p50_ms" "ms" (Report.median ms);
        metric "peak_rss_mb" "MB" rss;
        metric "speedup_geomean" "x" (Report.geomean (Sim.speedups passes));
      ]
  in
  {
    Report.correct = failed = 0 && deterministic;
    attempted = sum (fun p -> p.Sim.attempted);
    failed;
    metrics;
  }

let run_serve o =
  let st, setup_s =
    Report.repeat_setup ~reps:(setup_reps o)
      ~discard:(fun st -> Serve_load.stop_daemon st.Serve_load.daemon)
      Serve_load.setup
  in
  let daemon = st.Serve_load.daemon in
  let sched = Serve_load.schedule ~seed:o.seed ~seconds:o.seconds in
  let latencies l = List.map (fun a -> a.Serve_load.latency) l in
  let answers, rss =
    Fun.protect
      ~finally:(fun () ->
        Aptget_obs.Trace.disable ();
        Serve_load.stop_daemon daemon)
      (fun () ->
        if o.trace then Aptget_obs.Trace.enable ();
        let answers = Serve_load.send ~traced:o.trace st sched in
        (answers, Report.peak_rss_mb (string_of_int daemon.Serve_load.pid)))
  in
  let traced, untraced = List.partition (fun a -> a.Serve_load.traced) answers in
  let overhead =
    overhead ~traced:(latencies traced) ~untraced:(latencies untraced)
  in
  let failed =
    List.length (List.filter (fun a -> not a.Serve_load.ok) answers)
  in
  let ms l = List.map (fun x -> 1e3 *. x) l in
  let lat = ms (latencies answers) in
  let late = ms (List.map (fun a -> a.Serve_load.late) answers) in
  Report.info
    "%d request(s) at %g req/s: %d failed, %d retries; latency p50 %.1f ms, \
     p90 %.1f ms; sends late p95 %.1f ms"
    (List.length answers) Serve_load.rate failed
    (List.fold_left (fun n a -> n + a.Serve_load.retries) 0 answers)
    (Report.median lat) (Report.percentile lat 90.)
    (Report.percentile late 95.);
  let bodies = List.map snd st.Serve_load.cold in
  Report.info "answers crc32 %s"
    (Aptget_store.Crc32.hex
       (Aptget_store.Crc32.string (String.concat "" bodies)));
  let speedups = List.filter_map Serve_load.speedup_of_body bodies in
  let metrics =
    if o.trace then
      Layers.metrics ~seed:o.seed ~overhead ~response_body:(List.hd bodies)
        st.Serve_load.kernels
    else
      [
        metric "setup_s" "s" setup_s;
        metric "op_p50_ms" "ms" (Report.median lat);
        metric "peak_rss_mb" "MB" rss;
        metric "speedup_geomean" "x" (Report.geomean speedups);
      ]
  in
  {
    Report.correct =
      failed = 0 && List.length speedups = List.length bodies;
    attempted = max 1 (List.length answers);
    failed;
    metrics;
  }

let run o =
  Aptget_util.Pool.set_default_jobs (Some 1);
  let r =
    match if o.workload = "serve" then run_serve o else run_sim o with
    | r -> r
    | exception e ->
      Report.info "FAILED: %s" (Kernel.failure_text e);
      { Report.correct = false; attempted = 1; failed = 1; metrics = [] }
  in
  Option.iter (fun path -> Aptget_obs.Trace.export ~path) o.ndjson;
  Aptget_obs.Trace.reset ();
  Report.check_finite r

(* ------------------------------------------------------------------ *)
(* --smoke: every workload at small sizes for a couple of seconds, in
   both modes, checking that every metric BENCHMARK.json names is
   printed with its unit. *)

let declared_metrics path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let section key =
    let marker = Str.regexp_string ("\"" ^ key ^ "\"") in
    match Str.search_forward marker text 0 with
    | exception Not_found -> failwith ("BENCHMARK.json has no " ^ key)
    | start ->
      let stop = String.index_from text start ']' in
      let body = String.sub text start (stop - start) in
      let re =
        Str.regexp
          "\"name\": *\"\\([^\"]*\\)\"[^}]*\"unit\": *\"\\([^\"]*\\)\""
      in
      let rec all pos acc =
        match Str.search_forward re body pos with
        | exception Not_found -> List.rev acc
        | _ ->
          all (Str.match_end ())
            ((Str.matched_group 1 body, Str.matched_group 2 body) :: acc)
      in
      all 0 []
  in
  (section "end_to_end", section "per_layer")

let smoke () =
  let e2e, layers = declared_metrics "BENCHMARK.json" in
  let ok = ref true in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, declared) ->
          let r =
            run
              {
                workload;
                seed = 1;
                seconds = 1.;
                trace;
                ndjson = None;
                quick = true;
              }
          in
          Report.print r;
          let printed =
            List.map (fun m -> (m.Report.name, m.Report.unit_)) r.Report.metrics
          in
          let report what l =
            List.iter
              (fun (n, u) ->
                ok := false;
                Report.info "smoke %s: %s (%s) %s" workload n u what)
              l
          in
          report "not printed"
            (List.filter (fun d -> not (List.mem d printed)) declared);
          report "not declared"
            (List.filter (fun p -> not (List.mem p declared)) printed);
          if not r.Report.correct then ok := false)
        [ (false, e2e); (true, layers) ])
    workloads;
  Report.info "smoke %s" (if !ok then "ok" else "FAILED");
  exit (if !ok then 0 else 1)

let usage () =
  prerr_endline
    "usage: perf.exe --workload (advise-miss|advise-hit|corun|serve|all) \
     [--seed N] [--seconds S] [--trace 0|1] [--ndjson FILE] | --smoke";
  exit 2

let () =
  let rec parse o = function
    | [] -> o
    | "--" :: rest -> parse o rest
    | "--smoke" :: _ -> smoke ()
    | "--serve-daemon" :: spool :: _ -> Serve_load.daemon_main spool
    | "--workload" :: w :: rest when w = "all" || List.mem w workloads ->
      parse { o with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> parse { o with seed = n } rest
      | _ -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0. -> parse { o with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: (("0" | "1") as t) :: rest ->
      parse { o with trace = t = "1" } rest
    | "--ndjson" :: path :: rest -> parse { o with ndjson = Some path } rest
    | _ -> usage ()
  in
  let o =
    parse
      {
        workload = "";
        seed = 1;
        seconds = 20.;
        trace = false;
        ndjson = None;
        quick = false;
      }
      (List.tl (Array.to_list Sys.argv))
  in
  if o.workload = "" then usage ();
  let names = if o.workload = "all" then workloads else [ o.workload ] in
  let ok =
    List.fold_left
      (fun ok workload ->
        let r = run { o with workload } in
        Report.print r;
        ok && r.Report.correct)
      true names
  in
  exit (if ok then 0 else 1)
