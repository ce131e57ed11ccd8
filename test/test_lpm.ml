(* Net.Lpm: the path-compressed trie vs a naive linear-scan reference.

   Random insert/delete/lookup sequences over byte alphabets chosen to
   force deep prefix nesting, on both v4 (32-bit) and v6 (128-bit) key
   widths; plus directed cases for longest-match tie-breaking on nested
   prefixes and structural invariants (count, find, iter, clear). *)

module Lpm = Net.Lpm

let get_bit s i = (Char.code s.[i lsr 3] lsr (7 - (i land 7))) land 1

let normalize s plen =
  let nb = (plen + 7) / 8 in
  let b = Bytes.make nb '\000' in
  for i = 0 to plen - 1 do
    if get_bit s i = 1 then
      Bytes.set b (i lsr 3)
        (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (0x80 lsr (i land 7))))
  done;
  Bytes.unsafe_to_string b

let prefix_matches p plen key =
  let ok = ref true in
  for i = 0 to plen - 1 do
    if get_bit p i <> get_bit key i then ok := false
  done;
  !ok

(* --- linear-scan reference model ------------------------------------- *)

module Ref_fib = struct
  type 'a t = (string * int * 'a) list ref

  let create () : 'a t = ref []

  let insert t ~prefix ~plen v =
    let p = normalize prefix plen in
    t := (p, plen, v) :: List.filter (fun (q, ql, _) -> not (q = p && ql = plen)) !t

  let remove t ~prefix ~plen =
    let p = normalize prefix plen in
    let present = List.exists (fun (q, ql, _) -> q = p && ql = plen) !t in
    t := List.filter (fun (q, ql, _) -> not (q = p && ql = plen)) !t;
    present

  let lookup t key =
    List.fold_left
      (fun best (p, plen, v) ->
        if prefix_matches p plen key then
          match best with
          | Some (bl, _) when bl >= plen -> best
          | _ -> Some (plen, v)
        else best)
      None !t
    |> Option.map snd

  let count t = List.length !t
end

(* --- random op sequences ---------------------------------------------- *)

type op = Ins of string * int | Del of string * int

let gen_ops ~width ~n =
  let open QCheck.Gen in
  let nb = (width + 7) / 8 in
  (* A tiny byte alphabet makes distinct prefixes share long runs, which
     is what exercises splitting and path compression. *)
  let byte = oneofl [ '\x00'; '\xff'; '\xaa'; '\x12' ] in
  let prefix = string_size ~gen:byte (return nb) in
  let plen = int_range 0 width in
  list_size (return n)
    (frequency
       [ (4, map2 (fun p l -> Ins (p, l)) prefix plen);
         (1, map2 (fun p l -> Del (p, l)) prefix plen) ])

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Ins (p, l) ->
           Printf.sprintf "ins %s/%d" (String.concat "" (List.map (Printf.sprintf "%02x") (List.init (String.length p) (fun i -> Char.code p.[i])))) l
         | Del (p, l) ->
           Printf.sprintf "del %s/%d" (String.concat "" (List.map (Printf.sprintf "%02x") (List.init (String.length p) (fun i -> Char.code p.[i])))) l)
       ops)

let probe_keys ~width ops =
  let nb = (width + 7) / 8 in
  (* Every op prefix zero-extended to full width, plus a few fixed keys. *)
  let of_op = function
    | Ins (p, _) | Del (p, _) -> p
  in
  List.map of_op ops
  @ [ String.make nb '\x00'; String.make nb '\xff'; String.make nb '\xaa' ]

let equivalence_prop ~width ops =
  let trie = Lpm.create ~width in
  let model = Ref_fib.create () in
  let seq = ref 0 in
  List.iter
    (fun op ->
      incr seq;
      match op with
      | Ins (p, l) ->
        Lpm.insert trie ~prefix:p ~plen:l !seq;
        Ref_fib.insert model ~prefix:p ~plen:l !seq
      | Del (p, l) ->
        let a = Lpm.remove trie ~prefix:p ~plen:l in
        let b = Ref_fib.remove model ~prefix:p ~plen:l in
        if a <> b then QCheck.Test.fail_reportf "remove disagrees at op %d" !seq)
    ops;
  if Lpm.count trie <> Ref_fib.count model then
    QCheck.Test.fail_reportf "count: trie %d, reference %d" (Lpm.count trie)
      (Ref_fib.count model);
  List.iter
    (fun key ->
      let a = Lpm.lookup trie key in
      let b = Ref_fib.lookup model key in
      if a <> b then
        QCheck.Test.fail_reportf "lookup disagrees: trie %s, reference %s"
          (match a with Some v -> string_of_int v | None -> "miss")
          (match b with Some v -> string_of_int v | None -> "miss"))
    (probe_keys ~width ops);
  (* Exact-prefix find agrees with the model contents. *)
  List.iter
    (fun (p, l, v) ->
      match Lpm.find trie ~prefix:p ~plen:l with
      | Some v' when v' = v -> ()
      | other ->
        QCheck.Test.fail_reportf "find %d: want %d, got %s" l v
          (match other with Some v' -> string_of_int v' | None -> "miss"))
    !model;
  true

let qcheck_equiv ~name ~width ~n ~count =
  QCheck.Test.make ~count ~name
    (QCheck.make ~print:print_ops (gen_ops ~width ~n))
    (fun ops -> equivalence_prop ~width ops)

(* --- directed cases ---------------------------------------------------- *)

let v4 s = Lpm.key_of_v4 (Net.Addr.Ipv4.of_string_exn s)

let test_nested_tie_breaking () =
  let t = Lpm.create ~width:32 in
  Lpm.insert t ~prefix:(v4 "10.0.0.0") ~plen:8 "/8";
  Lpm.insert t ~prefix:(v4 "10.1.0.0") ~plen:16 "/16";
  Lpm.insert t ~prefix:(v4 "10.1.2.0") ~plen:24 "/24";
  Lpm.insert t ~prefix:(v4 "0.0.0.0") ~plen:0 "/0";
  Alcotest.(check (option string)) "longest wins" (Some "/24") (Lpm.lookup t (v4 "10.1.2.3"));
  Alcotest.(check (option string)) "mid prefix" (Some "/16") (Lpm.lookup t (v4 "10.1.9.9"));
  Alcotest.(check (option string)) "short prefix" (Some "/8") (Lpm.lookup t (v4 "10.9.9.9"));
  Alcotest.(check (option string)) "default" (Some "/0") (Lpm.lookup t (v4 "11.0.0.1"));
  (* Deleting the most specific falls back to the next one. *)
  Alcotest.(check bool) "remove /24" true (Lpm.remove t ~prefix:(v4 "10.1.2.0") ~plen:24);
  Alcotest.(check (option string)) "fallback" (Some "/16") (Lpm.lookup t (v4 "10.1.2.3"));
  Alcotest.(check bool) "remove absent" false (Lpm.remove t ~prefix:(v4 "10.1.2.0") ~plen:24);
  Alcotest.(check int) "count" 3 (Lpm.count t);
  (* Without the default route, addresses outside 10/8 go unrouted. *)
  Alcotest.(check bool) "remove /0" true (Lpm.remove t ~prefix:(v4 "0.0.0.0") ~plen:0);
  Alcotest.(check (option string)) "no default" None (Lpm.lookup t (v4 "11.0.0.1"));
  Alcotest.(check (option string)) "10/8 intact" (Some "/8") (Lpm.lookup t (v4 "10.9.9.9"));
  (* A lone /0 matches every key. *)
  let d = Lpm.create ~width:32 in
  Lpm.insert d ~prefix:(v4 "0.0.0.0") ~plen:0 "/0";
  Alcotest.(check (option string)) "lone default" (Some "/0")
    (Lpm.lookup d (v4 "222.173.190.239"))

let test_replace_and_iter () =
  let t = Lpm.create ~width:32 in
  Lpm.insert t ~prefix:(v4 "192.168.0.0") ~plen:16 1;
  Lpm.insert t ~prefix:(v4 "192.168.0.0") ~plen:16 2;
  Alcotest.(check int) "replace keeps count" 1 (Lpm.count t);
  Alcotest.(check (option int)) "replaced" (Some 2) (Lpm.lookup t (v4 "192.168.3.4"));
  Lpm.insert t ~prefix:(v4 "192.168.7.0") ~plen:24 3;
  let seen = ref [] in
  Lpm.iter t (fun ~prefix:_ ~plen v -> seen := (plen, v) :: !seen);
  Alcotest.(check (list (pair int int)))
    "iter visits all" [ (16, 2); (24, 3) ]
    (List.sort compare !seen);
  Lpm.clear t;
  Alcotest.(check int) "cleared" 0 (Lpm.count t);
  Alcotest.(check (option int)) "empty lookup" None (Lpm.lookup t (v4 "192.168.3.4"))

let test_normalized_ignores_host_bits () =
  let t = Lpm.create ~width:32 in
  (* Bits beyond plen must not affect identity: 10.1.2.3/16 = 10.1.0.0/16. *)
  Lpm.insert t ~prefix:(v4 "10.1.2.3") ~plen:16 "a";
  Alcotest.(check (option string)) "host bits ignored" (Some "a")
    (Lpm.find t ~prefix:(v4 "10.1.9.9") ~plen:16);
  Alcotest.(check bool) "remove via other host bits" true
    (Lpm.remove t ~prefix:(v4 "10.1.255.255") ~plen:16)

let test_v6_basics () =
  let t = Lpm.create ~width:128 in
  let k s = Lpm.key_of_v6 (Net.Addr.Ipv6.to_raw (Net.Addr.Ipv6.of_string_exn s)) in
  Lpm.insert t ~prefix:(k "2001:db8::") ~plen:32 "doc";
  Lpm.insert t ~prefix:(k "2001:db8:1::") ~plen:48 "site";
  Alcotest.(check (option string)) "v6 longest" (Some "site") (Lpm.lookup t (k "2001:db8:1::42"));
  Alcotest.(check (option string)) "v6 shorter" (Some "doc") (Lpm.lookup t (k "2001:db8:2::42"));
  Alcotest.(check (option string)) "v6 miss" None (Lpm.lookup t (k "2001:db9::1"))

let () =
  Alcotest.run "lpm"
    [
      ( "directed",
        [
          Alcotest.test_case "nested tie-breaking" `Quick test_nested_tie_breaking;
          Alcotest.test_case "replace and iter" `Quick test_replace_and_iter;
          Alcotest.test_case "normalized host bits" `Quick test_normalized_ignores_host_bits;
          Alcotest.test_case "v6 basics" `Quick test_v6_basics;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest
            (qcheck_equiv ~name:"v4 trie = linear scan" ~width:32 ~n:60 ~count:200);
          QCheck_alcotest.to_alcotest
            (qcheck_equiv ~name:"v6 trie = linear scan" ~width:128 ~n:60 ~count:120);
          QCheck_alcotest.to_alcotest
            (qcheck_equiv ~name:"odd width trie = linear scan" ~width:44 ~n:50 ~count:120);
        ] );
    ]
