module Hook = Nbq_primitives.Hook

exception Crashed

type action = Stall | Crash

let action_to_string = function Stall -> "stall" | Crash -> "crash"

type t = {
  point : Hook.point option Atomic.t;
  action : action Atomic.t;
  trigger_at : int Atomic.t;
  hits : int Atomic.t;
  triggered : bool Atomic.t;
  released : bool Atomic.t;
  victim : int Atomic.t;
}

let create () =
  {
    point = Atomic.make None;
    action = Atomic.make Stall;
    trigger_at = Atomic.make 1;
    hits = Atomic.make 0;
    triggered = Atomic.make false;
    released = Atomic.make false;
    victim = Atomic.make (-1);
  }

let arm t ~point ~action ~after =
  if after < 1 then invalid_arg "Injector.arm: after < 1";
  (* Disarm first so a concurrent hit cannot fire against half-reset
     state; the point is published last. *)
  Atomic.set t.point None;
  Atomic.set t.action action;
  Atomic.set t.trigger_at after;
  Atomic.set t.hits 0;
  Atomic.set t.triggered false;
  Atomic.set t.released false;
  Atomic.set t.victim (-1);
  Atomic.set t.point (Some point)

let disarm t = Atomic.set t.point None

let release t = Atomic.set t.released true

let hits t = Atomic.get t.hits

let triggered t = Atomic.get t.triggered

let victim t =
  match Atomic.get t.victim with -1 -> None | id -> Some id

let hit t p =
  match Atomic.get t.point with
  | Some point when p = point ->
      let n = Atomic.fetch_and_add t.hits 1 in
      (* Exactly one caller sees the trigger count: fetch-and-add makes
         the Nth hit unique even under races. *)
      if n + 1 = Atomic.get t.trigger_at then begin
        Atomic.set t.victim (Domain.self () :> int);
        Atomic.set t.triggered true;
        match Atomic.get t.action with
        | Stall ->
            while not (Atomic.get t.released) do
              Domain.cpu_relax ()
            done
        | Crash -> raise Crashed
      end
  | Some _ | None -> ()

let hook t : (module Hook.S) =
  (module struct
    let hit p = hit t p
  end)
