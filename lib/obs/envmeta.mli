(** Best-effort environment metadata for persisted observability
    documents (run records, bench JSON): which machine and toolchain
    produced the numbers. Dependency-free and total — a field that
    cannot be determined is ["unknown"], never an exception. *)

val git_rev : unit -> string
(** The HEAD commit hash, read directly from the nearest enclosing
    [.git] (loose refs, packed-refs and worktree pointer files are all
    handled; no subprocess). ["unknown"] outside a repository.

    Freshness contract: the files are re-read on {e every} call — there
    is deliberately no per-process memo, so a long-running consumer
    (the serve daemon's [stats], each [Driver.Run_record.collect])
    reports the rev as of the call, not of process start. A rebase or
    commit under a live daemon shows up on the next request.
    Regression-tested in test/test_record.ml. *)

val ocaml_version : string

val cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val common : unit -> (string * string) list
(** The standard metadata block: [git_rev], [ocaml_version], [cores],
    [os], [word_size]. Callers append run-specific fields (jobs, seed,
    solver, timestamp). *)
