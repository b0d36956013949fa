(** Per-site counters and counter sharing (§2.2.1).

    Each instrumented malloc site gets a counter whose value is the
    dynamic allocation instance.  Multiple sites that "work in tandem"
    may share one counter when the combined instance ids of their hot
    objects still follow a supported pattern — the paper finds sharing
    by simulating it over the allocation trace, which is exactly what
    {!share} does. *)

type site_allocs = {
  site : int;
  pos : int array;  (** trace position of each Alloc event (for interleaving) *)
  obj : int array;  (** dynamic object id of each allocation *)
  hot : bool array;  (** whether each allocation was selected as hot *)
}
(** One site's profiled allocations as parallel arrays, normally in
    ascending [pos]; an unsorted site is stably sorted by position. *)

type group = {
  counter : int;  (** counter id, dense from 0 *)
  sites : int list;  (** sites sharing this counter *)
  pattern : Context.pattern;  (** hot-id pattern under the shared numbering *)
  hot_assignments : (int * int) list;
      (** (shared instance id, object) for each hot allocation, ascending *)
  total : int;  (** total profiled allocations under this counter *)
}

val simulate : site_allocs list -> (int * int * bool) list
(** Merge the sites' allocations by trace position and number them with
    one shared counter: [(instance id, obj, hot)], ids 1-based. *)

val share : ?max_fixed:int -> ?enable:bool -> site_allocs list -> group list
(** Greedy sharing: sites are considered in order of first allocation;
    a site joins the first existing group for which the combined hot
    ids still form a supported pattern ([All], [Regular], or [Fixed]
    with at most [max_fixed] ids (default 3) or forming one consecutive run), otherwise it opens a
    new group.  Each group keeps its allocations merged by position,
    so testing a site against a group is one linear merge pass.
    [enable:false] (default [true]) skips sharing and
    returns one group per site, for the ablation benchmarks.

    Sites whose allocations contain no hot object are rejected with
    [Invalid_argument] — they should not be instrumented at all, and so
    are sites whose three arrays differ in length. *)

val num_counters : group list -> int
