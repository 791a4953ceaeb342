(* Unit tests for the nbq_primitives substrates: PRNG, backoff, barrier,
   ideal LL/SC cells, and the CAS-simulated LL/SC protocol. *)

module Prng = Nbq_primitives.Prng
module Backoff = Nbq_primitives.Backoff
module Barrier = Nbq_primitives.Barrier
module Llsc = Nbq_primitives.Llsc
module L = Nbq_primitives.Llsc_cas

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* --- Prng --- *)

let prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false
    (Prng.next_int64 a = Prng.next_int64 b)

let prng_int_bounds () =
  let g = Prng.create ~seed:3 in
  for bound = 1 to 50 do
    for _ = 1 to 50 do
      let x = Prng.int g bound in
      Alcotest.(check bool) "in range" true (x >= 0 && x < bound)
    done
  done

let prng_int_invalid () =
  let g = Prng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let prng_float_range () =
  let g = Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let prng_split_independent () =
  let g = Prng.create ~seed:5 in
  let h = Prng.split g in
  let xs = List.init 20 (fun _ -> Prng.next_int64 g) in
  let ys = List.init 20 (fun _ -> Prng.next_int64 h) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let prng_bool_mixes () =
  let g = Prng.create ~seed:6 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool g then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 400 && !trues < 600)

(* The first outputs of fixed seeds, as the boxed-[int64] generator drew
   them: the unboxed state keeps every seeded schedule in place. *)
let prng_pinned_outputs () =
  let g = Prng.create ~seed:42 in
  List.iter
    (fun x -> Alcotest.(check int64) "seed 42" x (Prng.next_int64 g))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ];
  let g = Prng.create ~seed:7 in
  List.iter
    (fun x -> Alcotest.(check int) "seed 7 int" x (Prng.int g 1000))
    [ 583; 804; 634 ];
  List.iter
    (fun x -> Alcotest.(check (float 0.)) "seed 7 float" x (Prng.float g))
    [ 0x1.2a75d6e0ce7c5p-1; 0x1.cf4ced99a8788p-2 ];
  Alcotest.(check int64) "split" 7959962799974569576L
    (Prng.next_int64 (Prng.split g))

(* A draw allocates nothing: the state is unboxed.  A [float] draw returns
   a boxed float unless the call is inlined (the release profile inlines
   it into a comparison), so it may allocate that result's 2 words. *)
let prng_draws_allocate_nothing () =
  let g = Prng.create ~seed:8 and hits = ref 0 in
  let words_per op =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1_000 do op () done;
    (Gc.minor_words () -. w0) /. 1_000.
  in
  Alcotest.(check (float 0.)) "int" 0.
    (words_per (fun () -> hits := !hits + Prng.int g 100));
  Alcotest.(check (float 0.)) "bool" 0.
    (words_per (fun () -> if Prng.bool g then incr hits));
  let float = words_per (fun () -> if Prng.float g < 0.5 then incr hits) in
  if float > 2. then Alcotest.failf "float draw allocates %g words" float

let prng_domain_local_stable () =
  let a = Prng.domain_local () in
  let b = Prng.domain_local () in
  Alcotest.(check bool) "same generator per domain" true (a == b)

let prng_domain_local_distinct () =
  let other =
    Domain.spawn (fun () ->
        let g = Prng.domain_local () in
        Prng.next_int64 g)
    |> Domain.join
  in
  let here = Prng.next_int64 (Prng.domain_local ()) in
  Alcotest.(check bool) "different domains, different seeds" true (other <> here)

(* --- Backoff --- *)

let backoff_growth () =
  let b = Backoff.create ~min_wait:2 ~max_wait:16 () in
  Alcotest.(check int) "starts at min" 2 (Backoff.current b);
  Backoff.once b;
  Alcotest.(check int) "doubles" 4 (Backoff.current b);
  Backoff.once b;
  Backoff.once b;
  Alcotest.(check int) "saturates" 16 (Backoff.current b);
  Backoff.once b;
  Alcotest.(check int) "stays saturated" 16 (Backoff.current b)

let backoff_reset () =
  let b = Backoff.create ~min_wait:1 ~max_wait:64 () in
  Backoff.once b;
  Backoff.once b;
  Backoff.reset b;
  Alcotest.(check int) "reset to min" 1 (Backoff.current b)

let backoff_validation () =
  Alcotest.check_raises "min_wait < 1"
    (Invalid_argument "Backoff.create: min_wait < 1") (fun () ->
      ignore (Backoff.create ~min_wait:0 ()));
  Alcotest.check_raises "max < min"
    (Invalid_argument "Backoff.create: max_wait < min_wait") (fun () ->
      ignore (Backoff.create ~min_wait:8 ~max_wait:4 ()))

let backoff_no_jitter_exact () =
  let b = Backoff.create ~min_wait:2 ~max_wait:16 () in
  Backoff.once b;
  Alcotest.(check int) "unjittered spin equals the envelope" 2
    (Backoff.last_wait b)

let backoff_jitter_bounds () =
  let b = Backoff.create ~min_wait:4 ~max_wait:64 ~jitter:true () in
  Alcotest.(check int) "no spin yet" 0 (Backoff.last_wait b);
  for _ = 1 to 20 do
    let envelope = Backoff.current b in
    Backoff.once b;
    let w = Backoff.last_wait b in
    Alcotest.(check bool)
      (Printf.sprintf "spin %d within [4, %d]" w envelope)
      true
      (w >= 4 && w <= envelope);
    let c = Backoff.current b in
    Alcotest.(check bool) "envelope within [min_wait, max_wait]" true
      (c >= 4 && c <= 64)
  done;
  Backoff.reset b;
  Alcotest.(check int) "reset clears last_wait" 0 (Backoff.last_wait b);
  Alcotest.(check int) "reset envelope" 4 (Backoff.current b)

(* --- Barrier --- *)

let barrier_releases_all () =
  let parties = 4 in
  let b = Barrier.create ~parties in
  let counter = Atomic.make 0 in
  let domains =
    List.init parties (fun _ ->
        Domain.spawn (fun () ->
            ignore (Atomic.fetch_and_add counter 1);
            Barrier.await b;
            (* After the barrier, everyone must have arrived. *)
            Atomic.get counter))
  in
  List.iter
    (fun d -> Alcotest.(check int) "all arrived first" parties (Domain.join d))
    domains

let barrier_reusable () =
  let parties = 3 in
  let b = Barrier.create ~parties in
  let phase = Atomic.make 0 in
  let domains =
    List.init parties (fun _ ->
        Domain.spawn (fun () ->
            let seen = ref [] in
            for _ = 1 to 5 do
              Barrier.await b;
              seen := Atomic.get phase :: !seen;
              Barrier.await b;
              ignore (Atomic.fetch_and_add phase 0)
            done;
            !seen))
  in
  (* Driver bumps the phase between rounds; but with symmetric workers we
     just verify nobody deadlocks across 10 barrier crossings. *)
  List.iter (fun d -> ignore (Domain.join d)) domains;
  Alcotest.(check int) "parties preserved" parties (Barrier.parties b)

let barrier_validation () =
  Alcotest.check_raises "parties < 1"
    (Invalid_argument "Barrier.create: parties < 1") (fun () ->
      ignore (Barrier.create ~parties:0))

(* --- Ideal LL/SC --- *)

let llsc_basic () =
  let c = Llsc.make 10 in
  Alcotest.(check int) "get" 10 (Llsc.get c);
  let l = Llsc.ll c in
  Alcotest.(check int) "ll value" 10 (Llsc.value l);
  Alcotest.(check bool) "sc succeeds" true (Llsc.sc c l 20);
  Alcotest.(check int) "written" 20 (Llsc.get c)

let llsc_sc_fails_after_write () =
  let c = Llsc.make 1 in
  let l = Llsc.ll c in
  Llsc.set c 2;
  Alcotest.(check bool) "reservation broken" false (Llsc.sc c l 3);
  Alcotest.(check int) "value intact" 2 (Llsc.get c)

let llsc_sc_fails_after_other_sc () =
  let c = Llsc.make 1 in
  let l1 = Llsc.ll c in
  let l2 = Llsc.ll c in
  Alcotest.(check bool) "first sc wins" true (Llsc.sc c l2 5);
  Alcotest.(check bool) "second sc loses" false (Llsc.sc c l1 7);
  Alcotest.(check int) "winner's value" 5 (Llsc.get c)

let llsc_aba_immune () =
  (* The scenario CAS cannot detect: A -> B -> A.  LL/SC must still fail. *)
  let c = Llsc.make 100 in
  let l = Llsc.ll c in
  Llsc.set c 200;
  Llsc.set c 100;
  (* same value as at ll time *)
  Alcotest.(check bool) "sc fails despite equal value" false (Llsc.sc c l 300)

let llsc_vl () =
  let c = Llsc.make 0 in
  let l = Llsc.ll c in
  Alcotest.(check bool) "valid before write" true (Llsc.vl c l);
  Llsc.set c 1;
  Alcotest.(check bool) "invalid after write" false (Llsc.vl c l)

let llsc_sc_only_once () =
  let c = Llsc.make 0 in
  let l = Llsc.ll c in
  Alcotest.(check bool) "first" true (Llsc.sc c l 1);
  Alcotest.(check bool) "reservation consumed" false (Llsc.sc c l 2)

(* Fresh-store cells: the stored value is its own reservation, so every
   value stored must be a block allocated for that store ([ref] always
   allocates).  A stale reservation fails once any other store happened,
   even of an equal-looking block; storing an immediate twice is the ABA
   the precondition excludes. *)
let fresh_stale_sc_fails () =
  let module F = Llsc.Fresh in
  Alcotest.(check bool) "fresh stores" true F.fresh_stores;
  let c = F.make (ref 100) in
  let l1 = F.ll c in
  let l2 = F.ll c in
  Alcotest.(check bool) "first sc wins" true (F.sc c l2 (ref 200));
  Alcotest.(check bool) "stale sc loses" false (F.sc c l1 (ref 300));
  let l3 = F.ll c in
  F.set c (ref 100);
  (* equal contents, another block *)
  Alcotest.(check bool) "stale after an equal store" false (F.sc c l3 (ref 1));
  Alcotest.(check int) "value intact" 100 !(F.get c)

let fresh_sc_consumes_reservation () =
  let module F = Llsc.Fresh in
  let c = F.make (ref 0) in
  let l = F.ll c in
  Alcotest.(check bool) "valid" true (F.vl c l);
  Alcotest.(check bool) "first" true (F.sc c l (ref 1));
  Alcotest.(check bool) "reservation consumed" false (F.vl c l);
  Alcotest.(check bool) "second sc fails" false (F.sc c l (ref 2));
  Alcotest.(check int) "first value kept" 1 !(F.get c)

let fresh_repeated_immediate_is_aba () =
  let module F = Llsc.Fresh in
  let c = F.make 100 in
  let l = F.ll c in
  F.set c 200;
  F.set c 100;
  Alcotest.(check bool) "a repeated immediate passes a stale sc" true
    (F.sc c l 300)

let llsc_concurrent_counter () =
  (* LL/SC retry loop implements an exact concurrent counter. *)
  let c = Llsc.make 0 in
  let per_domain = 10_000 and domains = 4 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              let rec incr () =
                let l = Llsc.ll c in
                if not (Llsc.sc c l (Llsc.value l + 1)) then incr ()
              in
              incr ()
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "exact count" (per_domain * domains) (Llsc.get c)

let llsc_weak_failure_rate () =
  let c = Llsc.Weak.make ~failure_rate:0.5 0 in
  let failures = ref 0 in
  let attempts = 2000 in
  for _ = 1 to attempts do
    let l = Llsc.Weak.ll c in
    if not (Llsc.Weak.sc c l (Llsc.Weak.value l + 1)) then incr failures
  done;
  (* ~50% spurious failures expected; accept a wide band. *)
  Alcotest.(check bool) "some spurious failures" true (!failures > attempts / 5);
  Alcotest.(check bool) "not all failures" true (!failures < attempts * 4 / 5)

let llsc_weak_zero_rate_is_ideal () =
  let c = Llsc.Weak.make ~failure_rate:0.0 0 in
  for i = 0 to 99 do
    let l = Llsc.Weak.ll c in
    Alcotest.(check bool) "always succeeds" true (Llsc.Weak.sc c l (i + 1))
  done;
  Alcotest.(check int) "counted" 100 (Llsc.Weak.get c)

let llsc_weak_rate_clamped () =
  (* Rates outside [0,1] are clamped rather than rejected. *)
  let c = Llsc.Weak.make ~failure_rate:(-3.0) 0 in
  let l = Llsc.Weak.ll c in
  Alcotest.(check bool) "clamped to 0 -> succeeds" true (Llsc.Weak.sc c l 1)

(* The ideal backend's Head/Tail counters are plain CAS'd ints: neither a
   bump nor a publish allocates. *)
let llsc_counters_allocate_nothing () =
  let module B = Nbq_primitives.Llsc_backend.Of_cell (Llsc) in
  let c = B.make_counter 0 in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    B.counter_advance c (2 * i);
    B.counter_publish c ~from:((2 * i) + 1) ~target:((2 * i) + 2)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "counted" (2 * n) (B.counter_get c);
  Alcotest.(check (float 0.)) "minor words" 0. words

(* --- CAS-simulated LL/SC --- *)

let lc_basic_ll_sc () =
  let reg = L.create_registry () in
  let h = L.register reg in
  let c = L.make 10 in
  Alcotest.(check int) "ll reads" 10 (L.ll c h);
  Alcotest.(check bool) "sc succeeds" true (L.sc c h 20);
  Alcotest.(check int) "peek" 20 (L.peek c)

let lc_rollback () =
  let reg = L.create_registry () in
  let h = L.register reg in
  let c = L.make 5 in
  let v = L.ll c h in
  Alcotest.(check bool) "rollback = sc with old value" true (L.sc c h v);
  Alcotest.(check int) "unchanged" 5 (L.peek c)

let lc_steal_reservation () =
  (* Two handles scripted from one thread: the second ll steals the first
     handle's reservation, so the first sc must fail. *)
  let reg = L.create_registry () in
  let h1 = L.register reg in
  let h2 = L.register reg in
  let c = L.make 1 in
  Alcotest.(check int) "h1 reserves" 1 (L.ll c h1);
  Alcotest.(check int) "h2 reads through h1's mark and steals" 1 (L.ll c h2);
  Alcotest.(check bool) "h1 lost its reservation" false (L.sc c h1 10);
  Alcotest.(check bool) "h2 still holds it" true (L.sc c h2 20);
  Alcotest.(check int) "h2's write" 20 (L.peek c)

let lc_peek_through_mark () =
  let reg = L.create_registry () in
  let h = L.register reg in
  let c = L.make 7 in
  ignore (L.ll c h);
  (* cell now holds h's mark *)
  Alcotest.(check int) "peek reads the placeholder" 7 (L.peek c);
  ignore (L.sc c h 7)

let lc_registry_recycles () =
  let reg = L.create_registry () in
  let h1 = L.register reg in
  Alcotest.(check int) "one var" 1 (L.registered_count reg);
  L.deregister h1;
  let h2 = L.register reg in
  Alcotest.(check int) "recycled, not grown" 1 (L.registered_count reg);
  L.deregister h2

let lc_registry_grows_under_simultaneity () =
  let reg = L.create_registry () in
  let h1 = L.register reg in
  let h2 = L.register reg in
  let h3 = L.register reg in
  Alcotest.(check int) "three simultaneous vars" 3 (L.registered_count reg);
  Alcotest.(check int) "all owned" 3 (L.owned_count reg);
  L.deregister h1;
  L.deregister h2;
  L.deregister h3;
  Alcotest.(check int) "none owned" 0 (L.owned_count reg)

let lc_reregister_keeps_free_var () =
  let reg = L.create_registry () in
  let h = L.register reg in
  let c = L.make 0 in
  ignore (L.ll c h);
  ignore (L.sc c h 1);
  L.reregister h;
  (* No reader pinned the var: the registry must not have grown. *)
  Alcotest.(check int) "kept" 1 (L.registered_count reg);
  L.deregister h

let lc_reregister_abandons_pinned_var () =
  let reg = L.create_registry () in
  let h1 = L.register reg in
  let h2 = L.register reg in
  let c = L.make 1 in
  (* h1 reserves; h2's ll transiently pins h1's var.  Simulate a reader
     that is still pinned by interleaving manually: we reproduce the pin by
     reserving then having h2 read through the mark while we freeze the
     decrement — the public API doesn't expose the mid-point, so instead we
     verify the conservative behaviour: after h2 steals, h1's refcount is
     back to 1 and reregister keeps the var. *)
  ignore (L.ll c h1);
  ignore (L.ll c h2);
  ignore (L.sc c h2 1);
  L.reregister h1;
  Alcotest.(check int) "no growth when unpinned" 2 (L.registered_count reg);
  L.deregister h1;
  L.deregister h2

let lc_value_transfer_through_marks () =
  (* A chain of steals must propagate the logical value unchanged. *)
  let reg = L.create_registry () in
  let handles = List.init 5 (fun _ -> L.register reg) in
  let c = L.make 42 in
  List.iter
    (fun h -> Alcotest.(check int) "value survives steal chain" 42 (L.ll c h))
    handles;
  (* Last handle holds the reservation; restore. *)
  (match List.rev handles with
  | last :: _ -> ignore (L.sc c last 42)
  | [] -> assert false);
  Alcotest.(check int) "restored" 42 (L.peek c)

let lc_unsafe_set_destroys_reservation () =
  let reg = L.create_registry () in
  let h = L.register reg in
  let c = L.make 1 in
  ignore (L.ll c h);
  L.unsafe_set c 99;
  Alcotest.(check bool) "reservation destroyed" false (L.sc c h 2);
  Alcotest.(check int) "unsafe value stands" 99 (L.peek c)

let lc_concurrent_counter () =
  (* The simulated LL/SC implements an exact counter across domains, with
     per-domain handles and paper-mandated re-registration. *)
  let reg = L.create_registry () in
  let c = L.make 0 in
  let per_domain = 5_000 and domains = 4 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            let h = L.register reg in
            for _ = 1 to per_domain do
              L.reregister h;
              let rec incr () =
                let v = L.ll c h in
                if not (L.sc c h (v + 1)) then incr ()
              in
              incr ()
            done;
            L.deregister h))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "exact count" (per_domain * domains) (L.peek c);
  Alcotest.(check bool)
    "registry bounded by max concurrency" true
    (L.registered_count reg <= domains)

(* --- Software MCAS --- *)

module Mcas = Nbq_primitives.Mcas

let mcas_basic () =
  let a = Mcas.make 1 and b = Mcas.make 2 in
  let sa = Mcas.read a and sb = Mcas.read b in
  Alcotest.(check int) "value a" 1 (Mcas.value sa);
  Alcotest.(check bool) "2-word success" true
    (Mcas.mcas [ (a, sa, 10); (b, sb, 20) ]);
  Alcotest.(check int) "a updated" 10 (Mcas.value (Mcas.read a));
  Alcotest.(check int) "b updated" 20 (Mcas.value (Mcas.read b))

let mcas_stale_snapshot_fails () =
  let a = Mcas.make 1 and b = Mcas.make 2 in
  let sa = Mcas.read a and sb = Mcas.read b in
  ignore (Mcas.mcas [ (a, sa, 5) ]);
  (* a changed *)
  Alcotest.(check bool) "stale a fails whole mcas" false
    (Mcas.mcas [ (a, sa, 10); (b, sb, 20) ]);
  Alcotest.(check int) "b untouched on failure" 2 (Mcas.value (Mcas.read b));
  Alcotest.(check int) "a keeps first write" 5 (Mcas.value (Mcas.read a))

let mcas_all_or_nothing () =
  let cells = List.init 5 (fun i -> Mcas.make i) in
  let snaps = List.map Mcas.read cells in
  let specs = List.map2 (fun c s -> (c, s, Mcas.value s + 100)) cells snaps in
  Alcotest.(check bool) "5-word success" true (Mcas.mcas specs);
  List.iteri
    (fun i c ->
      Alcotest.(check int) "all applied" (i + 100) (Mcas.value (Mcas.read c)))
    cells;
  (* Now poison one snapshot: nothing may change. *)
  let snaps2 = List.map Mcas.read cells in
  let specs2 = List.map2 (fun c s -> (c, s, 0)) cells snaps2 in
  let one = List.nth cells 3 in
  ignore (Mcas.mcas [ (one, List.nth snaps2 3, 999) ]);
  Alcotest.(check bool) "poisoned batch fails" false (Mcas.mcas specs2);
  List.iteri
    (fun i c ->
      let expect = if i = 3 then 999 else i + 100 in
      Alcotest.(check int) "nothing else changed" expect
        (Mcas.value (Mcas.read c)))
    cells

let mcas_validation () =
  (match Mcas.mcas [] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let a = Mcas.make 0 in
  let s = Mcas.read a in
  match Mcas.mcas [ (a, s, 1); (a, s, 2) ] with
  | _ -> Alcotest.fail "expected Invalid_argument for duplicate"
  | exception Invalid_argument _ -> ()

let mcas_single_cas () =
  let a = Mcas.make 7 in
  let s = Mcas.read a in
  Alcotest.(check bool) "cas" true (Mcas.cas a s 8);
  Alcotest.(check bool) "stale cas" false (Mcas.cas a s 9);
  Alcotest.(check int) "value" 8 (Mcas.value (Mcas.read a))

let mcas_concurrent_transfers () =
  (* Bank-transfer invariant: concurrent 2-word MCAS moves between cells
     preserve the sum exactly. *)
  let accounts = Array.init 4 (fun _ -> Mcas.make 1000) in
  let per_domain = 3_000 and domains = 4 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let rng = Nbq_primitives.Prng.create ~seed:(100 + d) in
            for _ = 1 to per_domain do
              let i = Nbq_primitives.Prng.int rng 4 in
              let j = (i + 1 + Nbq_primitives.Prng.int rng 3) mod 4 in
              let rec attempt () =
                let si = Mcas.read accounts.(i)
                and sj = Mcas.read accounts.(j) in
                let amount = 1 + Nbq_primitives.Prng.int rng 10 in
                if
                  not
                    (Mcas.mcas
                       [
                         (accounts.(i), si, Mcas.value si - amount);
                         (accounts.(j), sj, Mcas.value sj + amount);
                       ])
                then attempt ()
              in
              attempt ()
            done))
  in
  List.iter Domain.join workers;
  let total =
    Array.fold_left (fun acc c -> acc + Mcas.value (Mcas.read c)) 0 accounts
  in
  Alcotest.(check int) "sum conserved" 4000 total

(* --- Randomized model-based tests (single-threaded semantics) --- *)

type llsc_op = Get | Set of int | Ll | Sc of int | Vl

let llsc_op_gen =
  QCheck.Gen.(
    oneof
      [
        return Get;
        map (fun v -> Set v) (int_bound 100);
        return Ll;
        map (fun v -> Sc v) (int_bound 100);
        return Vl;
      ])

let llsc_op_print = function
  | Get -> "Get"
  | Set v -> Printf.sprintf "Set %d" v
  | Ll -> "Ll"
  | Sc v -> Printf.sprintf "Sc %d" v
  | Vl -> "Vl"

let qcheck_llsc_model =
  QCheck.Test.make ~count:500 ~name:"llsc agrees with register+reservation model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map llsc_op_print ops))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) llsc_op_gen))
    (fun ops ->
      let cell = Llsc.make 0 in
      let link = ref (Llsc.ll cell) in
      ignore (Llsc.sc cell !link 0);
      (* Model: the value, plus whether the saved link is still valid. *)
      let value = ref 0 and valid = ref false in
      Llsc.set cell 0;
      value := 0;
      List.for_all
        (fun op ->
          match op with
          | Get -> Llsc.get cell = !value
          | Set v ->
              Llsc.set cell v;
              value := v;
              valid := false;
              true
          | Ll ->
              link := Llsc.ll cell;
              let ok = Llsc.value !link = !value in
              valid := true;
              ok
          | Sc v ->
              let real = Llsc.sc cell !link v in
              let expected = !valid in
              if expected then begin
                value := v;
                valid := false
              end;
              real = expected
          | Vl -> Llsc.vl cell !link = !valid)
        ops)

type lc_op = LcLl | LcSc of int | LcPeek | LcUnsafe of int

let lc_op_gen =
  QCheck.Gen.(
    oneof
      [
        return LcLl;
        map (fun v -> LcSc v) (int_bound 100);
        return LcPeek;
        map (fun v -> LcUnsafe v) (int_bound 100);
      ])

let lc_op_print = function
  | LcLl -> "Ll"
  | LcSc v -> Printf.sprintf "Sc %d" v
  | LcPeek -> "Peek"
  | LcUnsafe v -> Printf.sprintf "Unsafe %d" v

let qcheck_llsc_cas_model =
  QCheck.Test.make ~count:500
    ~name:"llsc_cas agrees with register+reservation model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map lc_op_print ops))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) lc_op_gen))
    (fun ops ->
      let reg = L.create_registry () in
      let h = L.register reg in
      let cell = L.make 0 in
      (* Model: the logical value, plus whether our mark is installed. *)
      let value = ref 0 and reserved = ref false in
      List.for_all
        (fun op ->
          match op with
          | LcLl ->
              let got = L.ll cell h in
              reserved := true;
              got = !value
          | LcSc v ->
              let real = L.sc cell h v in
              let expected = !reserved in
              if expected then begin
                value := v;
                reserved := false
              end;
              real = expected
          | LcPeek -> L.peek cell = !value
          | LcUnsafe v ->
              L.unsafe_set cell v;
              value := v;
              reserved := false;
              true)
        ops)

let () =
  Alcotest.run "primitives"
    [
      ( "prng",
        [
          quick "deterministic" prng_deterministic;
          quick "seed sensitivity" prng_seed_sensitivity;
          quick "int bounds" prng_int_bounds;
          quick "int invalid bound" prng_int_invalid;
          quick "float range" prng_float_range;
          quick "split independence" prng_split_independent;
          quick "bool mixes" prng_bool_mixes;
          quick "pinned outputs" prng_pinned_outputs;
          quick "draws allocate nothing" prng_draws_allocate_nothing;
          quick "domain-local stable" prng_domain_local_stable;
          slow "domain-local distinct" prng_domain_local_distinct;
        ] );
      ( "backoff",
        [
          quick "exponential growth" backoff_growth;
          quick "reset" backoff_reset;
          quick "validation" backoff_validation;
          quick "no jitter: spin equals envelope" backoff_no_jitter_exact;
          quick "jitter stays within bounds" backoff_jitter_bounds;
        ] );
      ( "barrier",
        [
          slow "releases all" barrier_releases_all;
          slow "reusable across rounds" barrier_reusable;
          quick "validation" barrier_validation;
        ] );
      ( "llsc",
        [
          quick "basic" llsc_basic;
          quick "sc fails after write" llsc_sc_fails_after_write;
          quick "competing sc" llsc_sc_fails_after_other_sc;
          quick "ABA immunity" llsc_aba_immune;
          quick "validate" llsc_vl;
          quick "sc consumes reservation" llsc_sc_only_once;
          slow "concurrent counter" llsc_concurrent_counter;
          quick "weak failure rate" llsc_weak_failure_rate;
          quick "weak zero rate" llsc_weak_zero_rate_is_ideal;
          quick "weak rate clamped" llsc_weak_rate_clamped;
          quick "counters allocate nothing" llsc_counters_allocate_nothing;
          quick "fresh: stale sc fails after another fresh store"
            fresh_stale_sc_fails;
          quick "fresh: sc consumes the reservation"
            fresh_sc_consumes_reservation;
          quick "fresh: a repeated immediate is the excluded ABA"
            fresh_repeated_immediate_is_aba;
          QCheck_alcotest.to_alcotest qcheck_llsc_model;
        ] );
      ( "llsc-cas",
        [
          quick "basic ll/sc" lc_basic_ll_sc;
          quick "rollback" lc_rollback;
          quick "reservation stealing" lc_steal_reservation;
          quick "peek through mark" lc_peek_through_mark;
          quick "registry recycles" lc_registry_recycles;
          quick "registry grows under simultaneity"
            lc_registry_grows_under_simultaneity;
          quick "reregister keeps free var" lc_reregister_keeps_free_var;
          quick "reregister after steal" lc_reregister_abandons_pinned_var;
          quick "value transfer through steal chain"
            lc_value_transfer_through_marks;
          quick "unsafe_set destroys reservation"
            lc_unsafe_set_destroys_reservation;
          slow "concurrent counter + space adaptivity" lc_concurrent_counter;
          QCheck_alcotest.to_alcotest qcheck_llsc_cas_model;
        ] );
      ( "mcas",
        [
          quick "basic 2-word" mcas_basic;
          quick "stale snapshot fails" mcas_stale_snapshot_fails;
          quick "all-or-nothing over 5 words" mcas_all_or_nothing;
          quick "validation" mcas_validation;
          quick "single-word cas" mcas_single_cas;
          slow "concurrent transfers conserve sum" mcas_concurrent_transfers;
        ] );
    ]
