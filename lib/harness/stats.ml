type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank on a sorted array. *)
let percentile_sorted a q =
  let n = Array.length a in
  let rank = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  a.(max 0 (min (n - 1) rank))

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
      let n = List.length xs in
      let m = mean xs in
      let var =
        if n < 2 then 0.0
        else
          List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
          /. float_of_int (n - 1)
      in
      (* Float.compare, not polymorphic compare: the latter is both slower
         and orders nan inconsistently with the IEEE predicates. *)
      let sorted = Array.of_list (List.sort Float.compare xs) in
      let median =
        if n mod 2 = 1 then sorted.(n / 2)
        else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0
      in
      {
        n;
        mean = m;
        stddev = sqrt var;
        min = sorted.(0);
        max = sorted.(n - 1);
        median;
        p95 = percentile_sorted sorted 0.95;
        p99 = percentile_sorted sorted 0.99;
        p999 = percentile_sorted sorted 0.999;
      }

let normalize ~base x =
  if base = 0.0 then nan else x /. base

let pp_summary fmt s =
  Format.fprintf fmt
    "mean=%.6f sd=%.6f min=%.6f med=%.6f p95=%.6f p99=%.6f p999=%.6f \
     max=%.6f (n=%d)"
    s.mean s.stddev s.min s.median s.p95 s.p99 s.p999 s.max s.n
