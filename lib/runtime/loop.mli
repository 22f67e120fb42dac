(** The one blocking wait behind every event loop in the runtime.

    Callers pass the descriptors they need to read and the earliest
    real deadline they own ({!Supervisor.next_deadline},
    {!Pool.next_deadline}, a WAL group-commit due time, ...); there is
    no fixed tick, so a loop with nothing to do sleeps until an fd is
    readable or a deadline falls due. A caller must never pass a
    descriptor already drained to EOF: it stays readable and the wait
    would spin. Each return bumps the [runtime.loop.wakes] counter. *)

val wait : Unix.file_descr list -> until:float -> Unix.file_descr list
(** Block until one of [fds] is readable or the real clock
    ([Unix.gettimeofday]) reaches [until]; returns the readable
    descriptors ([[]] on timeout). [until = infinity] blocks
    indefinitely; a deadline already past returns at once. A signal
    interrupting the wait (EINTR) returns [[]]. *)
