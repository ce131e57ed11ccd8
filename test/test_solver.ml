(* Tests for the 0-1 ILP branch-and-bound solver — including optimality
   checks against brute force on random small instances. *)

let check = Alcotest.check

let mk nvars objective constraints =
  { Solver.Ilp.nvars; objective; constraints = Array.of_list constraints }

(* --- hand instances ------------------------------------------------------ *)

let test_ilp_trivial () =
  let sol = Solver.Ilp.solve (mk 0 [||] []) in
  check (Alcotest.float 0.0) "empty problem" 0.0 sol.Solver.Ilp.value;
  check Alcotest.bool "optimal" true sol.Solver.Ilp.optimal

let test_ilp_unconstrained () =
  (* pick everything with positive objective *)
  let sol = Solver.Ilp.solve (mk 3 [| 1.0; -2.0; 3.0 |] []) in
  check (Alcotest.float 0.001) "value" 4.0 sol.Solver.Ilp.value;
  check Alcotest.bool "assignment" true
    (sol.Solver.Ilp.assignment = [| true; false; true |])

let test_ilp_knapsack () =
  (* classic: weights 2,3,4,5 capacity 6, values 3,4,5,6 -> best = {2,4}=8 *)
  let sol =
    Solver.Ilp.solve
      (mk 4 [| 3.0; 4.0; 5.0; 6.0 |] [ ([| 2.0; 3.0; 4.0; 5.0 |], 6.0) ])
  in
  check (Alcotest.float 0.001) "knapsack optimum" 8.0 sol.Solver.Ilp.value;
  check Alcotest.bool "proved optimal" true sol.Solver.Ilp.optimal

let test_ilp_mutual_exclusion () =
  (* x0 + x1 <= 1 with values 5 and 7: pick x1 *)
  let sol = Solver.Ilp.solve (mk 2 [| 5.0; 7.0 |] [ ([| 1.0; 1.0 |], 1.0) ]) in
  check (Alcotest.float 0.001) "picked better" 7.0 sol.Solver.Ilp.value

let test_ilp_infeasible_vars_skipped () =
  (* a variable that violates a constraint alone can never be chosen *)
  let sol = Solver.Ilp.solve (mk 2 [| 100.0; 1.0 |] [ ([| 5.0; 1.0 |], 2.0) ]) in
  check (Alcotest.float 0.001) "big var excluded" 1.0 sol.Solver.Ilp.value

let test_greedy_feasible () =
  let p = mk 4 [| 3.0; 4.0; 5.0; 6.0 |] [ ([| 2.0; 3.0; 4.0; 5.0 |], 6.0) ] in
  let g = Solver.Ilp.solve_greedy p in
  check Alcotest.bool "greedy feasible" true (Solver.Ilp.feasible p g.Solver.Ilp.assignment)

(* --- brute-force cross-check ---------------------------------------------- *)

let brute_force (p : Solver.Ilp.problem) =
  let best = ref 0.0 in
  let n = p.Solver.Ilp.nvars in
  for mask = 0 to (1 lsl n) - 1 do
    let assignment = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
    if Solver.Ilp.feasible p assignment then begin
      let v = Solver.Ilp.value_of p assignment in
      if v > !best then best := v
    end
  done;
  !best

let prop_ilp_optimal =
  QCheck.Test.make ~count:150 ~name:"branch-and-bound = brute force (n<=10)"
    QCheck.(
      pair
        (int_range 1 10)
        (pair (small_list (int_range 0 20)) (int_range 1 4)))
    (fun (n, (seeds, ncons)) ->
      let rng = Prelude.Rng.create (Hashtbl.hash (n, seeds, ncons)) in
      let objective = Array.init n (fun _ -> float_of_int (Prelude.Rng.int rng 20) -. 5.0) in
      let constraints =
        List.init ncons (fun _ ->
            ( Array.init n (fun _ -> float_of_int (Prelude.Rng.int rng 6)),
              float_of_int (3 + Prelude.Rng.int rng 10) ))
      in
      let p = mk n objective constraints in
      let sol = Solver.Ilp.solve p in
      Float.abs (sol.Solver.Ilp.value -. brute_force p) < 1e-6
      && Solver.Ilp.feasible p sol.Solver.Ilp.assignment)

let test_ilp_node_budget () =
  (* with a tiny budget the solver still returns a feasible solution *)
  let n = 20 in
  let p =
    mk n
      (Array.init n (fun i -> float_of_int (i + 1)))
      [ (Array.make n 1.0, 10.0) ]
  in
  let sol = Solver.Ilp.solve ~node_budget:10 p in
  check Alcotest.bool "feasible under budget" true
    (Solver.Ilp.feasible p sol.Solver.Ilp.assignment);
  check Alcotest.bool "not proved optimal" false sol.Solver.Ilp.optimal

let () =
  Alcotest.run "solver"
    [
      ( "ilp",
        [
          Alcotest.test_case "trivial" `Quick test_ilp_trivial;
          Alcotest.test_case "unconstrained" `Quick test_ilp_unconstrained;
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "mutual exclusion" `Quick test_ilp_mutual_exclusion;
          Alcotest.test_case "infeasible vars" `Quick test_ilp_infeasible_vars_skipped;
          Alcotest.test_case "greedy feasible" `Quick test_greedy_feasible;
          Alcotest.test_case "node budget" `Quick test_ilp_node_budget;
          QCheck_alcotest.to_alcotest prop_ilp_optimal;
        ] );
    ]
