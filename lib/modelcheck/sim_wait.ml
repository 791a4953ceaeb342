(* The wait layer under simulation: the *identical* eventcount protocol
   (Nbq_wait.Eventcount_core), instantiated over Sim's instrumented atomics
   and a cooperative parker, so every park/wake interleaving becomes a
   branch of the explored schedule tree.

   The simulated parker is deliberately *weaker* than the production one:
   it has no 1 ms ticker backstop — park is a pure spin on the notify flag,
   each read of which is a scheduling point.  The production Parker's tick
   would eventually rescue any stranded waiter, masking exactly the class
   of bug (a lost wakeup in the Dekker handshake) this simulation exists to
   rule out.  What the checker proves is therefore the stronger statement:
   the protocol never NEEDS the backstop — on every schedule, a committed
   waiter is either signalled or observes the epoch change.

   A spinning parked task is still an enabled task to the explorer; the
   fairness probe distinguishes a parked spinner (marked via
   Sim.mark_parked) from a protocol-level spinner, so a stranded waiter
   classifies as Props.Stuck { parked } — the lost-wakeup verdict.

   The functor is generative: each application owns a fresh task->parker
   table, so one scenario's parker locations cannot leak into another's. *)

module Make () = struct
  module Env = struct
    module Atomic = Sim.Atomic

    module Parker = struct
      type t = { notified : bool Sim.Atomic.t }

      (* One parker per simulated task, keyed by task index the way the
         production layer keys per-domain parkers by domain. *)
      let table : (int, t) Hashtbl.t = Hashtbl.create 8

      let current () =
        let id = Sim.current_task () in
        match Hashtbl.find_opt table id with
        | Some p -> p
        | None ->
            let p = { notified = Sim.Atomic.make false } in
            Hashtbl.add table id p;
            p

      let park p =
        Sim.mark_parked true;
        let rec wait () =
          if Sim.Atomic.get p.notified then begin
            Sim.Atomic.set p.notified false;
            Sim.mark_parked false;
            `Notified
          end
          else wait ()
        in
        wait ()

      let notify p = Sim.Atomic.set p.notified true
      let drain p = Sim.Atomic.set p.notified false
    end

    let past d = 0. >= d
    let spin_ns = 0
    let now_ns () = 0
    (* No pre-park spin, so [await] never reads [now_ns]: under simulation
       the spin phase only multiplies schedule states without reaching
       different protocol states. *)
  end

  module EC = Nbq_wait.Eventcount_core.Make (Env)
end
