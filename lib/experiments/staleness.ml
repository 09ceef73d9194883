module Table = Aptget_util.Table
module Pipeline = Aptget_core.Pipeline
module Quarantine = Aptget_core.Quarantine
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro
module Hashjoin = Aptget_workloads.Hashjoin
module Profiler = Aptget_profile.Profiler
module Remap = Aptget_profile.Remap
module Hints_file = Aptget_profile.Hints_file

let micro_w lab = Micro.workload ~params:(Lab.micro_params lab) ~name:"micro-stale" ()

let hj_w lab =
  if Lab.quick lab then
    Hashjoin.workload
      ~params:
        {
          Hashjoin.hj8_params with
          Hashjoin.n_build = 65_536;
          n_probe = 32_768;
          n_buckets = 1 lsl 14;
        }
      ~name:"HJ8-stale" ()
  else Hashjoin.workload ~params:Hashjoin.hj8_params ~name:"HJ8-stale" ()

(* A mutated variant of [w]: same data, same semantics, different code
   layout. The mutation sees the built instance so it can aim at a
   profiled PC; [None] means the mutation does not apply (the scenario
   is skipped for that workload). *)
let mutated (w : Workload.t) ~tag mutate =
  let applicable =
    match mutate (w.Workload.build ()).Workload.func with
    | Some _ -> true
    | None -> false
  in
  if not applicable then None
  else
    Some
      {
        w with
        Workload.name = w.Workload.name ^ "~" ^ tag;
        build =
          (fun () ->
            let inst = w.Workload.build () in
            match mutate inst.Workload.func with
            | Some f -> { inst with Workload.func = f }
            | None -> inst);
      }

let first_hint_pc (doc : Hints_file.doc) =
  match doc.Hints_file.entries with
  | e :: _ -> Some e.Hints_file.e_hint.Aptget_passes.Aptget_pass.load_pc
  | [] -> None

(* The recompile scenarios. [load-collide] is the adversarial one: the
   profiled PC ends up naming a *different* (direct, hardware-covered)
   load, so blind application injects pure overhead. *)
let mutations doc =
  [
    ("pc-shift", fun f -> Some (Mutate.pad_entry f));
    ( "nop-slide",
      fun f ->
        Option.map
          (fun pc ->
            Mutate.insert_dead f ~block:(Layout.block_of_pc pc) ~index:0
              ~count:3)
          (first_hint_pc doc) );
    ("loop-split", fun f -> Some (Mutate.split_all f));
    ( "load-collide",
      fun f -> Option.bind (first_hint_pc doc) (fun pc -> Mutate.collide_load f ~pc)
    );
  ]

let recovered (r : Remap.t) =
  Printf.sprintf "%d/%d"
    (r.Remap.kept + r.Remap.remapped + r.Remap.rescaled)
    (List.length r.Remap.report)

let scenario_rows t quarantine (w : Workload.t) (doc : Hints_file.doc) =
  List.iter
    (fun (tag, mutate) ->
      match mutated w ~tag mutate with
      | None -> ()
      | Some mw ->
        let base = Pipeline.baseline mw in
        let blind =
          Pipeline.with_hints ~hints:(Hints_file.hints_of_doc doc) mw
        in
        let g =
          Pipeline.run_guarded ~quarantine ~remap:true ~baseline:base ~doc mw
        in
        let remap_str =
          match g.Pipeline.g_remap with Some r -> recovered r | None -> "-"
        in
        Table.add_row t
          [
            w.Workload.name;
            tag;
            Table.fmt_speedup (Pipeline.speedup ~baseline:base blind);
            remap_str;
            Table.fmt_speedup
              (match g.Pipeline.g_candidate with
              | Some m -> Pipeline.speedup ~baseline:g.Pipeline.g_baseline m
              | None -> g.Pipeline.g_speedup);
            Table.fmt_speedup g.Pipeline.g_speedup;
            Pipeline.guard_outcome_to_string g.Pipeline.g_outcome;
          ])
    (mutations doc)

let mutation_table lab =
  let t =
    Table.create
      ~title:
        "Staleness: stale hints applied blindly vs fingerprint-remapped \
         under the regression guard (floor 0.98x)"
      ~header:
        [
          "workload";
          "mutation";
          "blind";
          "recovered";
          "remapped";
          "guarded";
          "guard outcome";
        ]
  in
  let quarantine = Quarantine.create () in
  List.iter
    (fun w ->
      let doc = Profiler.to_doc (Lab.profiled lab w) in
      scenario_rows t quarantine w doc)
    [ micro_w lab; hj_w lab ];
  t

(* Same IR, different inputs: the micro kernel's trip counts are
   runtime arguments, so the hints' PCs stay exact but the distances
   were modelled on the wrong iteration time. Remapping keeps them
   (structurally nothing moved); the guard decides whether the stale
   timing still clears the floor. *)
let trip_change_table lab =
  let p = Lab.micro_params lab in
  let w = Micro.workload ~params:p ~name:"micro-stale" () in
  let doc = Profiler.to_doc (Lab.profiled lab w) in
  let t =
    Table.create
      ~title:
        "Staleness: trip-count change (same IR, inner trip count altered \
         after profiling)"
      ~header:[ "workload"; "inner"; "blind"; "guarded"; "guard outcome" ]
  in
  List.iter
    (fun inner ->
      let p' = { p with Micro.inner } in
      let mw =
        Micro.workload ~params:p'
          ~name:(Printf.sprintf "micro-stale-i%d" inner)
          ()
      in
      let base = Pipeline.baseline mw in
      let blind = Pipeline.with_hints ~hints:(Hints_file.hints_of_doc doc) mw in
      let g =
        Pipeline.run_guarded ~remap:true ~baseline:base ~doc mw
      in
      Table.add_row t
        [
          mw.Workload.name;
          string_of_int inner;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base blind);
          Table.fmt_speedup g.Pipeline.g_speedup;
          Pipeline.guard_outcome_to_string g.Pipeline.g_outcome;
        ])
    [ p.Micro.inner / 4; p.Micro.inner * 4 ];
  t

(* Quarantine persistence: the first guarded run of a harmful hint set
   pays one candidate simulation and records the verdict; the second
   run recognises the key and goes straight to the fallback. *)
let quarantine_table lab =
  let t =
    Table.create
      ~title:
        "Staleness: quarantine persistence (guarded runs of the load-collide \
         hint set, shared store)"
      ~header:[ "run"; "candidate simulated"; "final"; "guard outcome" ]
  in
  let w = micro_w lab in
  let doc = Profiler.to_doc (Lab.profiled lab w) in
  (match
     Option.bind (first_hint_pc doc) (fun pc ->
         mutated w ~tag:"load-collide" (fun f -> Mutate.collide_load f ~pc))
   with
  | None -> ()
  | Some mw ->
    let path = Filename.temp_file "aptget-quarantine" ".txt" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        List.iter
          (fun run ->
            (* A fresh store per run: persistence must come from the
               file, not from the in-memory table. *)
            let quarantine = Quarantine.create ~path () in
            let g = Pipeline.run_guarded ~quarantine ~doc mw in
            Table.add_row t
              [
                run;
                (match g.Pipeline.g_candidate with
                | Some _ -> "yes"
                | None -> "no");
                Table.fmt_speedup g.Pipeline.g_speedup;
                Pipeline.guard_outcome_to_string g.Pipeline.g_outcome;
              ])
          [ "first"; "second" ]));
  t

let all lab =
  [ mutation_table lab; trip_change_table lab; quarantine_table lab ]
