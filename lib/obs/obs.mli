(** Front door for the observability layer.

    The CLI surfaces ([bin/aptget], [bench/main]) call {!install} once
    with the [--trace] / [--metrics] paths; everything below the CLI
    only ever talks to {!Trace} / {!Metrics} directly (both of which
    are no-ops until enabled here). *)

val install : ?trace:string -> ?metrics:string -> unit -> unit
(** Enable the subsystems whose sidecar path is given and register
    [at_exit] exporters writing to those paths (atomic temp+rename), so
    traces survive early [exit] paths like campaign status codes. No-op
    when both are [None]. *)
