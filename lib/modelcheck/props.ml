(* Temporal properties over explored schedule trees.

   Safety (FIFO order, conservation, registry hygiene) is a predicate on
   states, checked by scenario checks and per-step invariants.  Liveness is
   a predicate on *branches*: when the explorer cuts a schedule at its step
   bound, the question is what kind of infinity it was heading for.  The
   explorer answers by continuing the cut state under a fair round-robin
   scheduler and watching for progress (completed operations); the outcome
   is classified here against the progress guarantee the algorithm claims. *)

type progress =
  | Lock_free
      (* some thread completes in finitely many steps under ANY scheduler;
         livelock and lost wakeups are both violations *)
  | Obstruction_free
      (* a thread running in isolation completes; mutual interference may
         livelock forever (the paper's CAS-simulated LL/SC does), but no
         thread may get irrecoverably stuck *)
  | Blocking
      (* waiting for another thread is part of the contract (e.g. a total
         dequeue on an empty queue); only safety is checked *)

type divergence =
  | Benign_retry
      (* the adversarial prefix was cut, but operations kept completing
         under the fair continuation: an unbounded-but-productive branch *)
  | Livelock_witness of { writers : int list }
      (* fair continuation, no operation ever completes, yet these threads
         keep writing shared state: the classic CAS-retry livelock shape *)
  | Stuck of { spinning : int list; parked : int list }
      (* fair continuation, no completions, and nobody even writes: every
         remaining thread re-reads state no one will change.  A parked
         member means a lost wakeup. *)

let progress_to_string = function
  | Lock_free -> "lock-free"
  | Obstruction_free -> "obstruction-free"
  | Blocking -> "blocking"

let ints l = String.concat "," (List.map string_of_int l)

let describe_divergence = function
  | Benign_retry -> "benign retry (progress under fair continuation)"
  | Livelock_witness { writers } ->
      Printf.sprintf "livelock witness (threads %s keep writing, no op completes)"
        (ints writers)
  | Stuck { spinning; parked } ->
      Printf.sprintf "stuck (spinning=%s parked=%s)" (ints spinning)
        (ints parked)

(* Is this divergence a liveness violation for an algorithm claiming this
   progress guarantee?  Messages are prefixed "liveness:" — the repro layer
   keys the counterexample kind off that. *)
let violation_of progress divergence =
  match (divergence, progress) with
  | Benign_retry, _ -> None
  | Livelock_witness { writers }, Lock_free ->
      Some
        (Printf.sprintf
           "liveness: livelock — under a fair scheduler threads [%s] keep \
            writing shared state but no operation ever completes, \
            contradicting the lock-freedom claim"
           (ints writers))
  | Livelock_witness _, (Obstruction_free | Blocking) -> None
  | Stuck { spinning; parked }, (Lock_free | Obstruction_free) ->
      let what =
        if parked <> [] then
          Printf.sprintf
            "lost wakeup — threads [%s] are parked with no pending wake%s"
            (ints parked)
            (if spinning = [] then ""
             else Printf.sprintf " (and [%s] spin on state no one will change)"
                    (ints spinning))
        else
          Printf.sprintf
            "threads [%s] spin forever on state no one will ever change"
            (ints spinning)
      in
      Some ("liveness: stuck — " ^ what)
  | Stuck _, Blocking -> None

let is_liveness_message msg =
  String.length msg >= 9 && String.sub msg 0 9 = "liveness:"
