(* Spans read back from a Chrome trace, and their self times.

   The benchmark and the program's own telemetry ([Flows] / [Campaign]
   through [?trace]) write into one {!S4e_obs.Trace_events} sink, so
   both share one clock.  Spans on one [tid] nest by containment; a
   span's self time is its duration minus the part of it covered by its
   direct children. *)

type t = { name : string; cat : string; tid : int; ts : float; dur : float }

let stop s = s.ts +. s.dur

let of_trace_json text =
  let module J = S4e_fleet.Json in
  match J.parse text with
  | Error e -> Error ("trace: " ^ e)
  | Ok v -> (
      match J.list v with
      | None -> Error "trace: not a JSON array"
      | Some events ->
          let span ev =
            match
              ( J.mem_str "ph" ev, J.mem_str "name" ev, J.mem_str "cat" ev,
                J.mem_int "tid" ev,
                Option.bind (J.mem "ts" ev) J.num,
                Option.bind (J.mem "dur" ev) J.num )
            with
            | Some "X", Some name, Some cat, Some tid, Some ts, Some dur ->
                Some { name; cat; tid; ts; dur }
            | _ -> None
          in
          Ok (List.filter_map span events))

(* Per tid: sort by start (longest first on ties), keep a stack of open
   spans, and charge each span's overlap with its parent to the parent.
   Returns every span paired with its self time, in input order of the
   sorted walk. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[]))
    spans;
  let tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid [] in
  List.concat_map
    (fun tid ->
      let ordered =
        List.sort
          (fun a b ->
            match Float.compare a.ts b.ts with
            | 0 -> Float.compare b.dur a.dur
            | c -> c)
          (Hashtbl.find by_tid tid)
        |> Array.of_list
      in
      let covered = Array.make (Array.length ordered) 0. in
      let stack = ref [] in
      Array.iteri
        (fun i s ->
          let rec unwind () =
            match !stack with
            | j :: rest when stop ordered.(j) <= s.ts ->
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | j :: _ ->
              let p = ordered.(j) in
              let overlap = Float.min (stop s) (stop p) -. s.ts in
              covered.(j) <- covered.(j) +. Float.max 0. overlap
          | [] -> ());
          stack := i :: !stack)
        ordered;
      Array.to_list
        (Array.mapi (fun i s -> (s, Float.max 0. (s.dur -. covered.(i)))) ordered))
    (List.sort compare tids)

(* Sums self time per layer; spans the classifier maps to [None] are
   left out. *)
let self_by_layer layer_of spans =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      match layer_of s with
      | None -> ()
      | Some l ->
          Hashtbl.replace acc l
            (self +. Option.value (Hashtbl.find_opt acc l) ~default:0.))
    (self_times spans);
  Hashtbl.fold (fun l v xs -> (l, v) :: xs) acc [] |> List.sort compare

let total_dur pred spans =
  List.fold_left (fun a s -> if pred s then a +. s.dur else a) 0. spans
