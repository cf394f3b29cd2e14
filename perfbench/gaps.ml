(* Per-mutant time from journal-line gaps.

   At [-j 1] the campaign classifies one mutant at a time and emits its
   record line as soon as it is classified, so the time between two
   consecutive lines is the cost of the later mutant.  That gap includes
   whatever the engine did between the two classifications — restoring a
   snapshot, and running the golden prefix up to the next injection
   instant when forking: fork-prefix time is charged to the next
   mutant.  The first record after the header also carries the golden
   convergence trace, so it is not a per-mutant sample. *)

type kind = Transient | Permanent

type sample = {
  gap_s : float;
  kind : kind;
  outcome : string;  (** {!S4e_fault.Campaign.outcome_name} *)
}

let classify line =
  match S4e_fault.Journal.parse_record line with
  | Error e -> Error e
  | Ok r ->
      let kind =
        match r.S4e_fault.Journal.r_fault.S4e_fault.Fault.kind with
        | S4e_fault.Fault.Transient _ -> Transient
        | S4e_fault.Fault.Permanent -> Permanent
      in
      Ok (kind, S4e_fault.Campaign.outcome_name r.S4e_fault.Journal.r_outcome)

(* [lines] is one campaign's journal stream, oldest first, as (time,
   line) pairs: the header, then record lines.  Returns one sample per
   record line after the first. *)
let attribute lines =
  let rec go prev acc = function
    | [] -> Ok (List.rev acc)
    | (t, line) :: rest -> (
        match classify line with
        | Error e -> Error e
        | Ok (kind, outcome) ->
            go t ({ gap_s = t -. prev; kind; outcome } :: acc) rest)
  in
  match lines with
  | [] -> Error "journal stream is empty"
  | (_, header) :: records -> (
      match (S4e_fault.Journal.parse_header header, records) with
      | Error e, _ -> Error e
      | Ok _, [] -> Ok []
      | Ok _, (t, first) :: rest -> (
          match classify first with
          | Error e -> Error e
          | Ok _ -> go t [] rest))

(* Share of the sampled time spent on mutants of each outcome. *)
let time_share samples outcome =
  let total = List.fold_left (fun a s -> a +. s.gap_s) 0. samples in
  if total <= 0. then 0.
  else
    List.fold_left
      (fun a s -> if s.outcome = outcome then a +. s.gap_s else a)
      0. samples
    /. total
