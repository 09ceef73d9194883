(* The benchmark's output contract: each metric printed as
   [name value unit], free-form information on lines starting with
   [#], and as the very last line one JSON object
   {"correct", "attempted", "failed", "metrics"}. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let info fmt = Printf.ksprintf (fun s -> print_endline ("# " ^ s)) fmt

(* Every digit as measured: a rounded time would read the same on
   every run and hide real movement. JSON has no NaN or infinity, so a
   metric that is not finite is printed as 0 and the run is marked
   incorrect by [check_finite]. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let check_finite r =
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) r.metrics in
  List.iter (fun m -> info "metric %s is not finite" m.name) bad;
  if bad = [] then r else { r with correct = false }

let print r =
  List.iter
    (fun m -> Printf.printf "%s %s %s\n" m.name (num m.value) m.unit_)
    r.metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value)
          m.unit_)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    r.correct r.attempted r.failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Small statistics shared by the workloads.                          *)

let median xs =
  match xs with
  | [] -> 0.
  | xs -> Aptget_util.Stats.median (Array.of_list xs)

let percentile xs p =
  match xs with
  | [] -> 0.
  | xs -> Aptget_util.Stats.percentile (Array.of_list xs) p

let geomean xs = Aptget_util.Stats.geomean (Array.of_list xs)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.
            | None -> scan ())
        in
        scan ())

(* Set-up is repeated [reps] times and reported as the median, so one
   slow start does not move [setup_s]; the last repetition's state is
   the one the measured phase uses. *)
let repeat_setup ~reps ~discard f =
  let rec go i times =
    let st, dt = timed f in
    if i >= reps then (st, median (dt :: times))
    else begin
      discard st;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []
