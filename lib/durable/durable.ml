(** Segmented WAL + fsck implementation.  See durable.mli for the
    contract; the framing in one line:

    MAGIC(2) | KIND(1) | GEN(8 LE) | LEN(4 LE) | PAYLOAD | CRC32(4 LE)

    with the CRC covering KIND..PAYLOAD.  The store itself is a
    deterministic in-memory simulator: segments are plain buffers, the
    durability watermark is a byte count, and the injected crash/fault
    machinery renders "what a reboot would find" as a string. *)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, poly 0xEDB88320), table-driven, stdlib only *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Record codec *)

let magic0 = '\xD7'
let magic1 = '\x4A'
let header_len = 15 (* magic 2 + kind 1 + gen 8 + len 4 *)
let trailer_len = 4 (* crc *)

(* A corrupted length field must not swallow the rest of the image as
   "one giant torn record": anything past this bound is treated as
   corruption, not as a plausible payload. *)
let max_payload = 1 lsl 26

let put_le b v n =
  for i = 0 to n - 1 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_le s pos n =
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let encode_record ~gen ~kind payload =
  let body = Buffer.create (13 + String.length payload) in
  Buffer.add_char body (Char.chr (kind land 0xff));
  put_le body gen 8;
  put_le body (String.length payload) 4;
  Buffer.add_string body payload;
  let body = Buffer.contents body in
  let b = Buffer.create (String.length body + 6) in
  Buffer.add_char b magic0;
  Buffer.add_char b magic1;
  Buffer.add_string b body;
  put_le b (crc32 body) 4;
  Buffer.contents b

type record = { rgen : int; rkind : int; rpayload : string }

(* Parse one record at [pos].  [`Overrun] means the bytes run out
   mid-record (a torn tail, if nothing parseable follows); [`Bad] means
   the bytes are there but wrong (magic, CRC, bogus length, or a
   generation that does not advance past [last_gen]). *)
let parse_at s pos ~last_gen =
  let len = String.length s in
  if pos + header_len + trailer_len > len then `Overrun
  else if s.[pos] <> magic0 || s.[pos + 1] <> magic1 then `Bad
  else
    let kind = Char.code s.[pos + 2] in
    let gen = get_le s (pos + 3) 8 in
    let plen = get_le s (pos + 11) 4 in
    if plen > max_payload then `Bad
    else if pos + header_len + plen + trailer_len > len then `Overrun
    else
      let body = String.sub s (pos + 2) (13 + plen) in
      let crc = get_le s (pos + header_len + plen) 4 in
      if crc32 body <> crc then `Bad
      else if gen <= last_gen then `Bad
      else
        `Ok
          ( { rgen = gen; rkind = kind; rpayload = String.sub s (pos + header_len) plen },
            pos + header_len + plen + trailer_len )

(* ------------------------------------------------------------------ *)
(* fsck *)

type report = {
  bytes_scanned : int;
  records_ok : int;
  records_skipped : int;
  torn_bytes : int;
  resyncs : int;
  gen_gaps : int;
}

let report_to_string r =
  Printf.sprintf
    "fsck: %d bytes, %d records ok, %d corrupt run%s skipped, %d gen gap%s, %d torn tail byte%s"
    r.bytes_scanned r.records_ok r.records_skipped
    (if r.records_skipped = 1 then "" else "s")
    r.gen_gaps
    (if r.gen_gaps = 1 then "" else "s")
    r.torn_bytes
    (if r.torn_bytes = 1 then "" else "s")

let fsck s =
  let len = String.length s in
  let recs = ref [] in
  let ok = ref 0 and skipped = ref 0 and torn = ref 0 and resyncs = ref 0 in
  let gaps = ref 0 in
  let last_gen = ref 0 in
  (* hunt forward for the next position where a whole record parses
     with a valid CRC and an advancing generation *)
  let resync from =
    let rec hunt p =
      if p >= len then None
      else if
        s.[p] = magic0
        && p + 1 < len
        && s.[p + 1] = magic1
        &&
        match parse_at s p ~last_gen:!last_gen with `Ok _ -> true | _ -> false
      then Some p
      else hunt (p + 1)
    in
    hunt from
  in
  let rec scan pos =
    if pos < len then
      match parse_at s pos ~last_gen:!last_gen with
      | `Ok (r, next) ->
          if r.rgen > !last_gen + 1 then gaps := !gaps + (r.rgen - !last_gen - 1);
          last_gen := r.rgen;
          incr ok;
          recs := r :: !recs;
          scan next
      | `Bad | `Overrun -> (
          match resync (pos + 1) with
          | Some p ->
              incr resyncs;
              incr skipped;
              scan p
          | None ->
              (* nothing parseable remains: the rest is a torn tail *)
              torn := len - pos)
  in
  scan 0;
  ( { bytes_scanned = len; records_ok = !ok; records_skipped = !skipped;
      torn_bytes = !torn; resyncs = !resyncs; gen_gaps = !gaps },
    List.rev !recs )

(* ------------------------------------------------------------------ *)
(* The store *)

type fault = Torn_tail | Bit_flip | Lost_flush

type t = {
  mutable sealed : string list;  (* closed segments, oldest first *)
  act : Buffer.t;  (* active tail segment *)
  mutable gen : int;  (* last generation stamped *)
  mutable stored : int;  (* records stored since creation *)
  mutable tail : int;  (* records since the last compact *)
  mutable flushed : int;  (* durable byte watermark over sealed+act *)
  mutable crash_after : int option;
  mutable crash_fault : fault option;
  mutable is_crashed : bool;
  mutable rlog_rev : (int * string * string) list;  (* kind, payload, raw; newest first *)
  mutable recs_rev : (int * int * int) list;  (* kind, offset, total len; newest first *)
  mutable rstate : int;  (* seeded PRNG state for fault injection *)
}

(* Segments seal at a fixed size so the on-disk shape really is a
   chain of bounded segments plus a tail, not one unbounded buffer. *)
let seg_limit = 1 lsl 16

let create ?(seed = 1) () =
  { sealed = []; act = Buffer.create 256; gen = 0; stored = 0; tail = 0;
    flushed = 0; crash_after = None; crash_fault = None; is_crashed = false;
    rlog_rev = []; recs_rev = []; rstate = (seed * 2654435761) lor 1 }

let rand t n =
  t.rstate <- (t.rstate * 0x5DEECE66D) + 0xB;
  let v = (t.rstate lsr 33) land max_int in
  if n <= 0 then 0 else v mod n

let total_len t =
  List.fold_left (fun acc s -> acc + String.length s) (Buffer.length t.act) t.sealed

let contents t = String.concat "" (List.rev (Buffer.contents t.act :: List.rev t.sealed))

let append t ~kind ~payload =
  (match t.crash_after with
  | Some n when t.stored >= n -> t.is_crashed <- true
  | _ -> ());
  if t.is_crashed then t.gen
  else begin
    let gen = t.gen + 1 in
    t.gen <- gen;
    let raw = encode_record ~gen ~kind payload in
    t.recs_rev <- (kind, total_len t, String.length raw) :: t.recs_rev;
    Buffer.add_string t.act raw;
    if Buffer.length t.act >= seg_limit then begin
      t.sealed <- t.sealed @ [ Buffer.contents t.act ];
      Buffer.clear t.act
    end;
    t.stored <- t.stored + 1;
    t.tail <- t.tail + 1;
    t.rlog_rev <- (kind, payload, raw) :: t.rlog_rev;
    gen
  end

let flush t = if not t.is_crashed then t.flushed <- total_len t

let compact t ~kind ~payload =
  if not t.is_crashed then begin
    t.sealed <- [];
    Buffer.clear t.act;
    t.recs_rev <- [];
    t.tail <- 0;
    ignore (append t ~kind ~payload);
    (* the snapshot write is fsynced by contract *)
    t.flushed <- total_len t
  end

let appended t = t.stored
let tail_records t = t.tail
let last_gen t = t.gen

let set_crash ?fault t ~after =
  t.crash_after <- Some after;
  t.crash_fault <- fault

let crashed t = t.is_crashed

let flip_bit s i =
  if String.length s = 0 then s
  else begin
    let i = i mod (8 * String.length s) in
    let b = Bytes.of_string s in
    Bytes.set b (i / 8) (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
    Bytes.to_string b
  end

let disk_image t =
  let base = contents t in
  (* a pure draw from the current PRNG state: reading the image twice
     must find the same wreckage, so the state is not advanced *)
  let peek n =
    let v = (((t.rstate * 0x5DEECE66D) + 0xB) lsr 33) land max_int in
    v mod n
  in
  if not t.is_crashed then base
  else
    match t.crash_fault with
    | None -> base
    | Some Lost_flush -> String.sub base 0 (min t.flushed (String.length base))
    | Some Torn_tail ->
        let len = String.length base in
        if len <= 1 then base
        else
          (* cut into (usually) the final record: header+crc alone is
             19 bytes, so a cut this shallow lands mid-record *)
          let c = 1 + peek (min (len - 1) (header_len + trailer_len + 5)) in
          String.sub base 0 (len - c)
    | Some Bit_flip ->
        let len = String.length base in
        if len = 0 then base else flip_bit base (peek (len * 8))

(* In-place silent corruption: rebuild the stored bytes with one bit
   flipped inside a victim record's payload (or its generation stamp
   when the payload is empty) — either way the CRC no longer verifies. *)
let corrupt ?kind ?victim t =
  let cands =
    match kind with
    | None -> List.rev t.recs_rev
    | Some k -> (
        match List.rev (List.filter (fun (rk, _, _) -> rk = k) t.recs_rev) with
        | [] -> List.rev t.recs_rev
        | l -> l)
  in
  (* when drawing at random, never pick the final record: corrupting it
     is indistinguishable from a torn tail, and this knob exists to
     exercise the mid-stream resync path (skip the bad run, recover
     everything after it).  An explicit [victim] index overrides. *)
  let cands =
    match victim with
    | Some _ -> cands
    | None -> (
        let last_off =
          List.fold_left (fun a (_, off, _) -> max a off) (-1) t.recs_rev
        in
        match List.filter (fun (_, off, _) -> off < last_off) cands with
        | [] -> cands
        | l -> l)
  in
  match cands with
  | [] -> false
  | _ ->
      let pick =
        match victim with
        | Some v -> min (max 0 v) (List.length cands - 1)
        | None -> rand t (List.length cands)
      in
      let _, off, rlen = List.nth cands pick in
      let plen = rlen - header_len - trailer_len in
      let lo, span =
        if plen > 0 then (off + header_len, plen) (* payload *)
        else (off + 3, 8) (* generation stamp *)
      in
      let bit = (lo * 8) + rand t (span * 8) in
      let flipped = flip_bit (contents t) bit in
      t.sealed <- [];
      Buffer.clear t.act;
      Buffer.add_string t.act flipped;
      true

let record_log t = List.rev_map (fun (k, p, _) -> (k, p)) t.rlog_rev
let record_bytes t = List.rev_map (fun (_, _, raw) -> raw) t.rlog_rev

(* ------------------------------------------------------------------ *)
(* File round-trip *)

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b
