(** Per-tenant namespaces: the isolation unit of the serve daemon.

    A tenant owns a private subtree of the spool —
    [<spool>/tenants/<id>/quarantine] and
    [<spool>/tenants/<id>/cache/] — plus an in-memory circuit breaker.
    One tenant's poisonous workload can therefore trip only its own
    breaker, quarantine only its own hint sets, and never read (or
    taint) another tenant's cached measurements: the memo also
    namespaces keys by tenant id, so even bit-identical requests from
    two tenants hit disjoint records.

    Requests for a tenant are processed serially (the server builds
    per-tenant groups, like the campaign runner's per-workload
    groups), so tenant state needs no locking and breaker transitions
    are deterministic at any [--jobs]. *)

type t = {
  id : string;
  dir : string;  (** [<root>/tenants/<id>] *)
  quarantine : Aptget_core.Quarantine.t;
  cache : Aptget_core.Meas_cache.t option;
  breaker : Aptget_core.Breaker.t;
}

type registry

val registry :
  root:string ->
  ?breaker:Aptget_core.Breaker.config ->
  ?cache:bool ->
  unit ->
  registry
(** [root] is the spool directory. [breaker] defaults to
    {!Aptget_core.Breaker.default_config}; [cache] (default [true])
    controls whether tenants get a measurement memo. *)

val find_or_create : registry -> string -> (t, string) result
(** Look up or materialise a tenant. The id is validated with
    {!Wire.valid_id} (it becomes a path component); loading the
    tenant's quarantine store emits [store.salvage.quarantine] for any
    corrupt records salvaged. *)

val known : registry -> t list
(** All tenants materialised so far, sorted by id. *)
