(** Line-oriented text rendering of traces, for reading by eye or by
    external tools ([prefix trace --format text]).  It is print-only:
    the on-disk trace format that is read back is {!Columnar}.

    The format is one event per line:

    {v
    A <obj> <site> <ctx> <size> <thread>     allocation
    L <obj> <offset> <thread>                load
    S <obj> <offset> <thread>                store
    F <obj> <thread>                         free
    R <obj> <new_size> <thread>              realloc
    C <instrs> <thread>                      compute block
    v} *)

val event_to_line : Event.t -> string

val to_string : Trace.t -> string
