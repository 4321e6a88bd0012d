(* Machine-readable history log: one event per line,

     <timestamp> <TAG> <fields...>

   space-separated, timestamps and durations in OCaml hex-float
   notation ("%h") so virtual times round-trip exactly — the checkers
   compare replayed instants for equality and a decimal detour would
   corrupt ties. The format is append-only and versioned by the
   header line; tm2c-check refuses logs with an unknown header. The
   record grammar (tags, field order, field kinds) is Event's codec
   table; this module only renders and parses the field text.

   Writing and reading are both streaming: the writer appends one
   line per event as it arrives (fed straight from the trace sink)
   and stamps an "# events N" footer on close, which readers verify
   when present, so a truncated log is detected instead of silently
   checked short. Reading iterates line by line — tm2c-check never
   needs the whole log in memory. *)

open Tm2c_core
open Types

(* v5 added the admission records (ADM SHD EXP RBX); v4 added the
   streaming event-count footer (a reader-side truncation check; the
   record grammar is unchanged); v3 added the failover records (SCR
   EPB RPA FOD SER); v2 added the fault/hardening records (DRP DUP RSN
   CRS LSR). All older versions are still accepted on read. *)
let header = "# tm2c-history v5"

let header_v4 = "# tm2c-history v4"

let header_v3 = "# tm2c-history v3"

let header_v2 = "# tm2c-history v2"

let header_v1 = "# tm2c-history v1"

let footer_prefix = "# events "

(* Field text: "%h" floats, 0/1 flags, comma-joined address lists,
   conflict labels with "STATUS" for the status-CAS abort path. *)
let output_value oc = function
  | Event.Int i -> output_string oc (string_of_int i)
  | Event.Bool b -> output_string oc (if b then "1" else "0")
  | Event.Float f -> Printf.fprintf oc "%h" f
  | Event.Str s -> output_string oc s
  | Event.Ints l -> output_string oc (String.concat "," (List.map string_of_int l))
  | Event.Conflict c -> output_string oc (Event.conflict_opt_to_string c)
  | Event.Shed r -> output_string oc (shed_reason_to_string r)

(* Streaming writer: header up front, one line per event, count
   footer on close. *)
type writer = { w_oc : out_channel; mutable w_count : int; w_owns : bool }

let writer_of_channel oc =
  Printf.fprintf oc "%s\n" header;
  { w_oc = oc; w_count = 0; w_owns = false }

let create_writer path =
  let oc = open_out path in
  Printf.fprintf oc "%s\n" header;
  { w_oc = oc; w_count = 0; w_owns = true }

let put w time ev =
  Printf.fprintf w.w_oc "%h %s" time (Event.tag ev);
  List.iter
    (fun (_, v) ->
      output_char w.w_oc ' ';
      output_value w.w_oc v)
    (Event.fields ev);
  output_char w.w_oc '\n';
  w.w_count <- w.w_count + 1

let written w = w.w_count

let close_writer w =
  Printf.fprintf w.w_oc "%s%d\n" footer_prefix w.w_count;
  if w.w_owns then close_out w.w_oc else flush w.w_oc

let write oc iter =
  let w = writer_of_channel oc in
  iter (fun time ev -> put w time ev);
  close_writer w

let save path iter =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc iter)

let parse_error lineno msg =
  failwith (Printf.sprintf "history log line %d: %s" lineno msg)

let parse_value lineno kind s =
  let bad what s = parse_error lineno (Printf.sprintf "bad %s %S" what s) in
  let int s = match int_of_string_opt s with Some i -> i | None -> bad "integer" s in
  match kind with
  | Event.K_int -> Event.Int (int s)
  | Event.K_bool -> (
      match s with "0" -> Event.Bool false | "1" -> Event.Bool true | _ -> bad "flag" s)
  | Event.K_float -> (
      match float_of_string_opt s with Some f -> Event.Float f | None -> bad "float" s)
  | Event.K_str -> Event.Str s
  | Event.K_ints ->
      Event.Ints (if s = "" then [] else List.map int (String.split_on_char ',' s))
  | Event.K_conflict -> (
      if s = "STATUS" then Event.Conflict None
      else
        match conflict_of_string s with
        | Some c -> Event.Conflict (Some c)
        | None -> bad "conflict label" s)
  | Event.K_shed -> (
      match shed_reason_of_string s with
      | Some r -> Event.Shed r
      | None -> bad "shed reason" s)

let parse_line lineno line =
  match String.split_on_char ' ' line with
  | time_s :: tag :: tokens -> (
      let time =
        match float_of_string_opt time_s with
        | Some t -> t
        | None -> parse_error lineno (Printf.sprintf "bad timestamp %S" time_s)
      in
      let unrecognized () =
        parse_error lineno
          (Printf.sprintf "unrecognized record %S" (String.concat " " (tag :: tokens)))
      in
      match Event.schema tag with
      | Some schema when List.compare_lengths schema tokens = 0 -> (
          let values =
            List.map2 (fun (_, kind) s -> parse_value lineno kind s) schema tokens
          in
          match Event.decode tag values with
          | Some ev -> (time, ev)
          | None -> unrecognized ())
      | _ -> unrecognized ())
  | _ -> parse_error lineno "short line"

let is_prefix pre s =
  String.length s >= String.length pre
  && String.sub s 0 (String.length pre) = pre

let iter_channel ic f =
  (match input_line ic with
  | h
    when h = header || h = header_v4 || h = header_v3 || h = header_v2
         || h = header_v1 -> ()
  | h -> failwith (Printf.sprintf "unknown history log header %S" h)
  | exception End_of_file ->
      failwith (Printf.sprintf "empty history log: expected %S header" header));
  let count = ref 0 in
  let lineno = ref 1 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if line = "" then ()
       else if line.[0] = '#' then begin
         (* The count footer, when present, must match the events
            seen so far: a mismatch means the log was truncated (or
            grew) after the writer closed it. *)
         if is_prefix footer_prefix line then
           let declared =
             String.sub line (String.length footer_prefix)
               (String.length line - String.length footer_prefix)
           in
           match int_of_string_opt (String.trim declared) with
           | Some n when n = !count -> ()
           | Some n ->
               parse_error !lineno
                 (Printf.sprintf
                    "event-count footer says %d but %d events precede it \
                     (truncated log?)" n !count)
           | None -> parse_error !lineno "malformed event-count footer"
       end
       else begin
         let time, ev = parse_line !lineno line in
         incr count;
         f time ev
       end
     done
   with End_of_file -> ());
  !count

let iter_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> iter_channel ic f)

let read ic =
  let events = ref [] in
  let _ = iter_channel ic (fun time ev -> events := (time, ev) :: !events) in
  List.rev !events

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
