(* The conformance battery instantiated for every registered queue. *)

module Registry = Nbq_harness.Registry

(* The segmented queue behind the parked blocking wrapper, as one extra
   battery row: the "-blocking" row a blocking evequoz-seg family would
   derive (budget-0 wrapper attempts as plain ops, parked [*_until]
   paths), so every battery case exercises the wake-on-success plumbing.
   Not registered: [Registry.all] keeps its rows. *)
let seg_blocking_impl =
  Registry.register_family
    (Registry.Family.v "evequoz-seg" ~classification:Registry.Link_based
       ~blocking:true (fun _ -> (module Nbq_segmented.Segmented.Cas)))
  |> List.find (fun (i : Registry.impl) -> i.name = "evequoz-seg-blocking")

let () =
  let suites =
    List.map
      (fun (impl : Registry.impl) -> (impl.Registry.name, Battery.cases impl))
      (Registry.all @ [ seg_blocking_impl ])
  in
  Alcotest.run "queue-conformance" suites
