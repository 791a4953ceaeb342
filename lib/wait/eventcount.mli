(** Lock-free eventcount: the bridge between the non-blocking queues and
    actually sleeping domains.

    An eventcount lets a thread wait for "the world changed" without
    spinning and without a lock around the condition.  It is two words of
    shared state — a {e sequence counter} that wakers bump, and a
    CAS-linked {e waiter stack} of published sleepers — plus the
    per-domain {!Parker} cells the waiters sleep on.  The protocol is the
    classic three-step one:

    + {!prepare_wait} publishes a waiter on the stack (and snapshots the
      sequence counter);
    + the caller {b re-checks its condition} — if it now holds, it
      {!cancel_wait}s and proceeds;
    + {!commit_wait} parks the domain until a waker signals the waiter,
      the sequence counter moves, or the deadline passes.

    {b Why no wakeup is ever lost} (DESIGN.md §10): the waiter's publish
    (step 1) and the waker's read of the waiter stack are both
    sequentially-consistent atomics, and each side writes before it reads
    — the waiter publishes {e then} re-checks the condition, the waker
    makes the condition true {e then} reads the stack.  Interleave them
    any way you like: either the waker sees the published waiter and
    signals it, or the waiter's re-check sees the condition already true
    and never sleeps.

    {b Why a crashed waker cannot strand a sleeper}: wakers bump the
    sequence counter {e before} touching the waiter stack, and parked
    waiters sleep in bounded slices (the {!Parker} ticker wakes them every
    millisecond) re-checking the counter each time.  A waker that dies
    inside the [Wake_lost] window has already moved the counter, so every
    published waiter notices within one tick, withdraws, and re-checks its
    condition — a crash converts a wakeup into (at most) a one-tick delay,
    never a hang. *)

type t

val create : ?hook:(module Nbq_primitives.Hook.S) -> unit -> t
(** A fresh eventcount with no waiters.

    [hook] (default [Hook.Noop]) receives the wait layer's points: the
    counts [Wait_park] each time a domain actually goes to sleep (one wait
    can park several times), [Wait_wake] each time a wake path delivers a
    signal to a parked waiter and [Wait_cancel] each time a published
    waiter withdraws without consuming a wake; and the windows
    [Park_window], after a waiter is published and committed, immediately
    before the first sleep, and [Wake_lost], inside {!wake_one}/{!wake_all}
    after the sequence-counter bump and before any waiter is popped or
    signalled. *)

type waiter
(** A published wait-in-progress, owned by the domain that prepared it.
    Exactly one of {!commit_wait} or {!cancel_wait} must follow each
    {!prepare_wait} (commit cancels internally on timeout, so the usual
    pairing is prepare → re-check → commit-or-cancel). *)

val prepare_wait : t -> waiter
(** Snapshot the sequence counter and push a waiter onto the stack.  After
    this returns, any {!wake_one} may pick this waiter, so the caller must
    promptly re-check its condition and either commit or cancel. *)

val commit_wait :
  ?deadline:float -> ?max_park:int -> t -> waiter -> [ `Woken | `Timeout ]
(** Park until one of: a waker signals this waiter; the sequence counter
    moves past the {!prepare_wait} snapshot (a wake happened somewhere —
    possibly one whose sender crashed mid-delivery — so the condition must
    be re-checked); [max_park] park slices (ticks) elapse (default 32 — a
    paranoia cap that bounds even wakeups lost {e outside} the wait layer,
    e.g. a producer dying between its enqueue and its wake call, to a
    ~[max_park]-millisecond delay); or [deadline] (absolute
    [Unix.gettimeofday] time) passes.  Returns [`Timeout] only for the
    deadline; in every case the waiter is consumed (withdrawn or
    signalled) — do not [cancel_wait] it afterwards.  [`Woken] does
    {b not} mean the caller's condition holds; re-check and re-prepare in
    a loop (or use {!await}).  Deadline resolution is
    {!Parker.tick_interval}. *)

val cancel_wait : t -> waiter -> unit
(** Withdraw a prepared waiter without parking (the condition came true
    between prepare and commit, or the caller gave up).  If the waiter had
    {e already} been claimed by a waker, the signal is passed on to
    another waiter via {!wake_one} so no wakeup is swallowed. *)

val wake_one : t -> bool
(** Pop waiters until one is successfully claimed and its domain notified;
    returns [false] iff no claimable waiter was found.  The sequence
    counter is bumped {e before} the stack is touched (crash tolerance);
    an empty stack is detected with a single read and skips the bump —
    safe because the caller's condition write precedes the read while a
    waiter's publish precedes its condition re-check.  Non-blocking;
    [O(1)] amortized. *)

val wake_all : t -> int
(** Bump the sequence counter and signal every published waiter; returns
    how many were claimed.  Same empty-stack fast path as {!wake_one}.
    Non-blocking. *)

val await :
  ?max_park:int -> t -> deadline:float -> ('b -> 'a option) -> 'b -> 'a option
(** [await t ~deadline cond arg] — the full wait loop: try [cond arg]
    once; then spin, polling [cond arg] every 4 [Domain.cpu_relax] pauses
    (about 0.1 us) for 1.2 ms of monotonic-clock time, reading the clocks
    every 256 polls (the wall clock for [deadline] first, then the
    monotonic one for the spin budget); then repeat \{prepare; re-check;
    commit\} until [cond arg] yields [Some v] or [deadline] passes.

    The result is [cond]'s own [Some v], returned as it is, or [None] on
    timeout.  [deadline] is an absolute [Unix.gettimeofday] time;
    [infinity] means no deadline, and then the wall clock is never read
    (the spin still reads the monotonic clock for its budget).  The
    condition takes its argument explicitly so that a caller can pass a
    function built once (or a top-level one) instead of a closure per
    call: a wait whose condition holds before any park allocates nothing
    beyond what [cond] itself allocates, and the spin allocates nothing
    per poll.

    A condition that comes true during the spin is seen within about one
    poll.  A deadline that passes during the spin is noticed within 256
    polls (tens of microseconds), without parking.  A deadline already in
    the past still tries [cond] (at least once) but never parks.  [max_park] is passed through
    to {!commit_wait}.  [cond] must be safe to call repeatedly from the
    waiting domain. *)

(** {2 Hygiene}

    Cancelled waiters are unlinked lazily: wakers discard them while
    popping, {!cancel_wait} pops its own node when it is still the head,
    and once enough cancels have accumulated the whole stack is detached
    and the still-live waiters re-pushed.  {!audit} exposes the stack
    composition so tests can assert no dangling waiters survive a
    cancellation storm. *)

val audit : t -> int * int
(** [(waiting, cancelled)] — waiters currently linked in the stack, split
    by state.  O(stack length); takes a snapshot, racy by nature (for
    tests and diagnostics on quiescent eventcounts). *)

val seq : t -> int
(** Current sequence-counter value (diagnostics). *)
