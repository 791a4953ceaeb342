(* NBQ-FAULT-REPRO v2-mc: the model checker's counterexample line.

   Same family as the torture/fault lines (grep for NBQ-FAULT-REPRO to
   find every producer): one self-contained line that a later session can
   paste back to re-derive the failure.  For the model checker the payload
   is an (algorithm, scenario) spec key plus the explicit schedule — the
   per-step task choices Dpor.replay consumes. *)

let marker = "NBQ-FAULT-REPRO"
let version = "v2-mc"

type t = {
  algorithm : string;
  scenario : string;
  kind : [ `Safety | `Liveness ];
  schedule : int list;
}

let of_violation ~algorithm ~scenario ~message schedule =
  {
    algorithm;
    scenario;
    kind = (if Props.is_liveness_message message then `Liveness else `Safety);
    schedule;
  }

let to_line t =
  Printf.sprintf "%s %s algorithm=%s scenario=%s kind=%s schedule=%s" marker
    version t.algorithm t.scenario
    (match t.kind with `Safety -> "safety" | `Liveness -> "liveness")
    (match t.schedule with
    | [] -> "-"
    | s -> String.concat "," (List.map string_of_int s))

(* Parse [to_line]'s output back; tolerant of surrounding text (a pasted
   log line) and of extra key=value fields from future versions. *)
let parse line =
  let ( let* ) = Option.bind in
  let* rest =
    let probe = marker ^ " " ^ version ^ " " in
    let plen = String.length probe in
    let llen = String.length line in
    let rec find i =
      if i + plen > llen then None
      else if String.sub line i plen = probe then
        Some (String.sub line (i + plen) (llen - i - plen))
      else find (i + 1)
    in
    find 0
  in
  let fields =
    String.split_on_char ' ' rest
    |> List.filter_map (fun tok ->
           match String.index_opt tok '=' with
           | None -> None
           | Some i ->
               Some
                 ( String.sub tok 0 i,
                   String.sub tok (i + 1) (String.length tok - i - 1) ))
  in
  let* algorithm = List.assoc_opt "algorithm" fields in
  let* scenario = List.assoc_opt "scenario" fields in
  let* kind =
    match List.assoc_opt "kind" fields with
    | Some "safety" -> Some `Safety
    | Some "liveness" -> Some `Liveness
    | _ -> None
  in
  let* schedule =
    match List.assoc_opt "schedule" fields with
    | Some "-" -> Some []
    | Some s -> (
        try Some (List.map int_of_string (String.split_on_char ',' s))
        with Failure _ -> None)
    | None -> None
  in
  Some { algorithm; scenario; kind; schedule }
