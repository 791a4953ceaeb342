(* The process-wide flight recorder: one SPSC {!Ring} per domain, created
   lazily through DLS the first time a domain records, plus a single armed
   flag every hook checks first.

   Cost model.  Disarmed, every hook is one [Atomic.get] on a cache-stable
   flag and a conditional — the "always compiled, off by default" promise.
   Armed, the recorder samples operation *spans* (1 in [sample]); the deep
   probe events only record while their domain is inside a sampled span, so
   the armed steady-state cost stays a small fraction of an operation (the
   bench gate-trace preset holds it under 10%).  Torture and schedule
   exploration arm with [sample:1] ("full" mode) where fidelity matters and
   throughput does not. *)

module Clock = Nbq_obs.Clock

type t = {
  armed : bool Atomic.t;
  full : bool;            (* sample <= 1: record everything, span every op *)
  sample_mask : int;      (* pow2 - 1; op spans sampled when tick matches *)
  ring_bits : int;
  epoch : int;            (* ns origin, so record timestamps stay small *)
  rings : Ring.t list Atomic.t;
  dls : Ring.t Domain.DLS.key;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(ring_bits = 12) ?(sample = 64) () =
  if ring_bits < 2 || ring_bits > 24 then
    invalid_arg "Recorder.create: ring_bits outside 2..24";
  let sample = next_pow2 (max 1 sample) in
  (* The rings list exists before the DLS key so the init closure can
     publish each new ring as it is born (the key cannot capture itself). *)
  let rings = Atomic.make [] in
  let dls =
    Domain.DLS.new_key (fun () ->
        let r = Ring.create ~dom:(Domain.self () :> int) ~bits:ring_bits in
        let rec push () =
          let cur = Atomic.get rings in
          if not (Atomic.compare_and_set rings cur (r :: cur)) then push ()
        in
        push ();
        r)
  in
  {
    armed = Atomic.make false;
    full = sample <= 1;
    sample_mask = sample - 1;
    ring_bits;
    epoch = Clock.now_ns ();
    rings;
    dls;
  }

let armed t = Atomic.get t.armed

let rings t =
  List.sort (fun a b -> compare (Ring.dom a) (Ring.dom b)) (Atomic.get t.rings)

(* Arming resets span state so a span id from a previous armed window can
   never pair with a fresh end record.  Only disarm/arm between operations
   (the harness does): a domain mid-operation while spans reset could write
   an end whose begin was discarded — harmless for export (unpaired ends
   render as instants) but noisy. *)
let arm t =
  List.iter
    (fun (r : Ring.t) ->
      r.Ring.span <- 0;
      r.Ring.tick <- 0)
    (Atomic.get t.rings);
  Atomic.set t.armed true

let disarm t = Atomic.set t.armed false

let[@inline] now t = Clock.now_ns () - t.epoch

(* Deep events: recorded only in full mode or inside this domain's active
   sampled span, so the armed fast path outside a span is flag + DLS get +
   one int compare. *)
let event t ev =
  if Atomic.get t.armed then begin
    let r = Domain.DLS.get t.dls in
    if t.full || r.Ring.span <> 0 then
      Ring.write r ~tag:(Record.obs_tag ev) ~ts:(now t) ~span:r.Ring.span
        ~arg:0
  end

(* Fault-window hits are never sampled away: they are the records a
   post-mortem dump exists for, and injection runs are not throughput
   runs. *)
let fault t p =
  if Atomic.get t.armed then begin
    let r = Domain.DLS.get t.dls in
    Ring.write r ~tag:(Record.fault_tag p) ~ts:(now t) ~span:r.Ring.span
      ~arg:0
  end

let span_begin t op ~arg =
  if Atomic.get t.armed then begin
    let r = Domain.DLS.get t.dls in
    let n = r.Ring.tick + 1 in
    r.Ring.tick <- n;
    if t.full || n land t.sample_mask = 0 then begin
      let s = r.Ring.next_span in
      r.Ring.next_span <- s + 1;
      r.Ring.span <- s;
      Ring.write r ~tag:(Record.span_begin_tag op) ~ts:(now t) ~span:s ~arg
    end
    else r.Ring.span <- 0
  end

(* Close whatever span is open even if the recorder was disarmed mid-
   operation; an extra end record is cheaper than a span that never
   terminates. *)
let span_end t op ~arg =
  let r = Domain.DLS.get t.dls in
  if r.Ring.span <> 0 then begin
    Ring.write r ~tag:(Record.span_end_tag op) ~ts:(now t) ~span:r.Ring.span
      ~arg;
    r.Ring.span <- 0
  end

(* The shape the hot wrappers use.  The wrapper keeps the sampling tick
   itself (a plain shared ref, like the metrics layer's: lost updates
   only perturb the rate) and checks it before anything else, so a
   non-sampled operation — armed or not — costs one tick store and a
   mask test: no flag, no DLS, no clock.  Only a sampled operation
   reaches [span_open], which checks the armed flag, unconditionally
   opens a span on the caller's ring and hands it back so the close side
   needs no second lookup. *)
let span_open t op ~arg =
  if not (Atomic.get t.armed) then None
  else begin
    let r = Domain.DLS.get t.dls in
    let s = r.Ring.next_span in
    r.Ring.next_span <- s + 1;
    r.Ring.span <- s;
    Ring.write r ~tag:(Record.span_begin_tag op) ~ts:(now t) ~span:s ~arg;
    Some r
  end

let span_close t (r : Ring.t) op ~arg =
  Ring.write r ~tag:(Record.span_end_tag op) ~ts:(now t) ~span:r.Ring.span
    ~arg;
  r.Ring.span <- 0

let full t = t.full
let sample_mask t = t.sample_mask

(* Windows record as fault hits (never sampled away); points that feed a
   counter also record that event, so a window that sits at a count's
   program point (e.g. [Seg_append], a tail help) leaves both records. *)
let hook (t : t) : (module Nbq_primitives.Hook.S) =
  (module struct
    let hit p =
      if Nbq_primitives.Hook.is_window p then fault t p;
      match Nbq_obs.Event.of_point p with Some ev -> event t ev | None -> ()
  end)
