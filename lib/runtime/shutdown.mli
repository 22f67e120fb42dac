(** Cooperative shutdown on SIGINT/SIGTERM.

    [install] replaces the default die-immediately behaviour with a
    flag that long-running loops poll at safe points (between campaign
    instances, at epoch boundaries) so they can flush journals and
    write a final checkpoint before exiting non-zero. The handler only
    sets the flag and writes one byte to a self-pipe — all real work
    happens in the polling code. Event loops that block put
    {!wake_fd} in their {!Loop.wait} set, so a signal landing just
    before the wait still wakes it. *)

val install : ?signals:int list -> unit -> unit
(** Install handlers (default SIGINT and SIGTERM). Re-installation is
    idempotent. *)

val uninstall : unit -> unit
(** Restore default handlers for whatever [install] replaced. *)

val requested : unit -> bool
(** Whether a shutdown signal has arrived. *)

val exit_code : unit -> int
(** Conventional [128 + signal] exit status (1 when unknown). *)

val request : unit -> unit
(** Set the flag programmatically (tests, internal escalation). *)

val reset : unit -> unit
(** Clear the flag and drain the wake pipe (tests). *)

val wake_fd : unit -> Unix.file_descr
(** Read end of the self-pipe: readable from the first shutdown
    signal (or {!request}) until {!reset}. *)
