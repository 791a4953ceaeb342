open Effect
open Effect.Deep

(* Every scheduling point announces the shared-memory access the resuming
   task is about to perform (None for plain [yield]s): the footprint DPOR
   needs to decide which schedule reorderings can matter.  The yield fires
   *before* the access, so a paused task's next footprint is known to the
   scheduler at choice time. *)
type access = { loc : int; kind : [ `Read | `Write ] }

type _ Effect.t +=
  | Yield : access option -> unit Effect.t
  | Progress : unit Effect.t        (* a queue operation completed *)
  | Task_id : int Effect.t          (* identity for per-task sim state *)
  | Parked : bool -> unit Effect.t  (* waiting-layer metadata for liveness *)

let yield () = perform (Yield None)

(* Fault windows are where a real thread can be stalled or killed, so
   they are where the explorer preempts a simulated one.  Counted points
   are not scheduling points: each sits right after an atomic access,
   which already is one. *)
module Yield_at_windows : Nbq_primitives.Hook.S = struct
  let hit p = if Nbq_primitives.Hook.is_window p then yield ()
end

let op_completed () = perform Progress
let current_task () = perform Task_id
let mark_parked b = perform (Parked b)

(* Location ids must be deterministic across re-executions (DPOR compares
   footprints recorded in one run against accesses replayed in another), so
   explorers reset this counter before each scenario build.  Locations
   allocated lazily mid-run are still sound: any state reached through a
   shared replayed prefix allocates them in the same order. *)
let loc_counter = ref 0
let reset_locations () = loc_counter := 0

let fresh_loc () =
  incr loc_counter;
  !loc_counter

module Atomic : Nbq_primitives.Atomic_intf.ATOMIC = struct
  (* Plain refs: the simulated threads are cooperatively scheduled in one
     domain, so each access is already atomic; the Yield before it makes
     it a scheduling point. *)
  type 'a t = { cell : 'a ref; loc : int }

  let make v = { cell = ref v; loc = fresh_loc () }

  let get r =
    perform (Yield (Some { loc = r.loc; kind = `Read }));
    !(r.cell)

  let set r v =
    perform (Yield (Some { loc = r.loc; kind = `Write }));
    r.cell := v

  let compare_and_set r old v =
    (* A failed CAS writes nothing, but announcing it as a write keeps the
       dependency relation static (the outcome is unknown at choice time)
       — conservative, never unsound. *)
    perform (Yield (Some { loc = r.loc; kind = `Write }));
    if !(r.cell) == old then begin
      r.cell := v;
      true
    end
    else false

  let fetch_and_add r n =
    perform (Yield (Some { loc = r.loc; kind = `Write }));
    let v = !(r.cell) in
    r.cell := v + n;
    v
end

(* --- The stepping core: one controlled execution --- *)

module Exec = struct
  type footprint =
    | Access of access  (* paused immediately before this atomic access *)
    | Pure  (* paused at a plain [yield]; the next step touches nothing *)
    | Unstarted  (* never ran; its first step runs up to its first yield,
                    performing no shared access on the way *)

  type task =
    | Pending of (unit -> unit)
    | Paused of (unit, unit) continuation * access option
    | Finished

  type t = {
    st : task array;
    parked : bool array;
    mutable progress_hit : bool;
  }

  type step_info = { performed : access option; progressed : bool }

  let start thunks =
    {
      st = Array.map (fun f -> Pending f) thunks;
      parked = Array.make (Array.length thunks) false;
      progress_hit = false;
    }

  let ntasks t = Array.length t.st

  let enabled t =
    let acc = ref [] in
    Array.iteri
      (fun i task -> match task with Finished -> () | _ -> acc := i :: !acc)
      t.st;
    List.rev !acc

  let pending t i =
    match t.st.(i) with
    | Pending _ -> Unstarted
    | Paused (_, Some a) -> Access a
    | Paused (_, None) -> Pure
    | Finished -> invalid_arg "Sim.Exec.pending: task already finished"

  let parked t i = t.parked.(i)

  (* Run task [i] until its next scheduling point (or completion). *)
  let step t i =
    let handler =
      {
        retc = (fun () -> t.st.(i) <- Finished);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield acc ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    t.st.(i) <- Paused (k, acc))
            | Progress ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    t.progress_hit <- true;
                    continue k ())
            | Task_id -> Some (fun (k : (a, unit) continuation) -> continue k i)
            | Parked b ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    t.parked.(i) <- b;
                    continue k ())
            | _ -> None);
      }
    in
    t.progress_hit <- false;
    let performed =
      match t.st.(i) with
      | Pending _ -> None
      | Paused (_, a) -> a
      | Finished -> invalid_arg "Sim.step: task already finished"
    in
    (match t.st.(i) with
    | Pending thunk -> match_with thunk () handler
    | Paused (k, _) ->
        (* Mark running so a re-entrant step is impossible; the handler
           attached at [match_with] time still intercepts the next Yield. *)
        t.st.(i) <- Finished;
        continue k ()
    | Finished -> invalid_arg "Sim.step: task already finished");
    { performed; progressed = t.progress_hit }
end

(* --- Legacy DFS explorer (rebuilt on Exec, behavior unchanged) --- *)

(* Execute one schedule.  [choices] pins the first decisions; beyond it the
   schedule continues non-preemptively (keep running the current task).
   Returns the status and the full decision trace (reversed): per
   scheduling point, the set of choices the explorer may branch over and
   the one taken.

   [preemption_bound] caps the number of *preemptions* — switching away
   from a still-enabled task.  Lock-free retry loops only rerun when
   another thread interferes, so with finitely many preemptions every
   schedule terminates, and the exploration is complete for all schedules
   with at most that many preemptions (the CHESS insight: almost all
   concurrency bugs need very few).  [None] = unbounded. *)
let run_once tasks ~choices ~max_steps ~preemption_bound =
  let ex = Exec.start tasks in
  let rec loop steps choices rev_trace last preemptions =
    match Exec.enabled ex with
    | [] -> (`Completed, rev_trace)
    | en ->
        if steps >= max_steps then (`Diverged, rev_trace)
        else begin
          let may_preempt =
            match preemption_bound with
            | None -> true
            | Some b -> preemptions < b
          in
          let allowed =
            match last with
            | Some l when List.mem l en -> if may_preempt then en else [ l ]
            | Some _ | None -> en
          in
          let chosen, rest =
            match choices with
            | c :: cs ->
                if List.mem c allowed then (c, cs)
                else invalid_arg "Sim: schedule disagrees with allowed set"
            | [] -> (List.hd allowed, [])
          in
          let preempted =
            match last with
            | Some l -> chosen <> l && List.mem l en
            | None -> false
          in
          ignore (Exec.step ex chosen : Exec.step_info);
          loop (steps + 1) rest
            ((allowed, chosen) :: rev_trace)
            (Some chosen)
            (if preempted then preemptions + 1 else preemptions)
        end
  in
  loop 0 choices [] None 0

type stats = {
  schedules : int;
  completed : int;
  diverged : int;
  exhaustive : bool;
}

exception Violation of { schedule : int list; message : string }

(* Next unexplored prefix after a run with decision trace [rev_trace]
   (deepest decision first): backtrack to the deepest point with an
   untried alternative. *)
let next_prefix rev_trace =
  let rec go = function
    | [] -> None
    | (en, chosen) :: shallower -> (
        match List.find_opt (fun e -> e > chosen) en with
        | Some alt -> Some (List.rev_append (List.map snd shallower) [ alt ])
        | None -> go shallower)
  in
  go rev_trace

let explore ?(max_steps = 10_000) ?(max_schedules = 1_000_000)
    ?(preemption_bound = Some 4) scenario =
  let schedules = ref 0 and completed = ref 0 and diverged = ref 0 in
  let rec go prefix =
    if !schedules >= max_schedules then false
    else begin
      incr schedules;
      reset_locations ();
      let tasks, check = scenario () in
      let status, rev_trace =
        run_once tasks ~choices:prefix ~max_steps ~preemption_bound
      in
      (match status with
      | `Completed -> (
          incr completed;
          try check ()
          with e ->
            let schedule = List.rev_map snd rev_trace in
            raise (Violation { schedule; message = Printexc.to_string e }))
      | `Diverged -> incr diverged);
      match next_prefix rev_trace with
      | None -> true
      | Some prefix' -> go prefix'
    end
  in
  let exhaustive = go [] in
  {
    schedules = !schedules;
    completed = !completed;
    diverged = !diverged;
    exhaustive;
  }

let run_sequential f =
  match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield _ -> Some (fun (k : (a, _) continuation) -> continue k ())
          | Progress -> Some (fun (k : (a, _) continuation) -> continue k ())
          | Task_id -> Some (fun (k : (a, _) continuation) -> continue k (-1))
          | Parked _ -> Some (fun (k : (a, _) continuation) -> continue k ())
          | _ -> None);
    }

let run_schedule ?(max_steps = max_int) scenario schedule =
  reset_locations ();
  let tasks, check = scenario () in
  let status, _ =
    run_once tasks ~choices:schedule ~max_steps ~preemption_bound:None
  in
  (match status with `Completed -> check () | `Diverged -> ());
  status
