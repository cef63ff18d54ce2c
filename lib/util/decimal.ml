type t = {
  sign : int; (* -1, 0 or 1 *)
  digits : string; (* significant digits, no leading/trailing '0' *)
  exp : int; (* value = sign * 0.digits * 10^exp *)
}

let zero = { sign = 0; digits = ""; exp = 0 }

(* Normalize a raw digit string [ds] representing sign * 0.ds * 10^exp. *)
let normalize sign ds exp =
  let n = String.length ds in
  let first = ref 0 in
  while !first < n && ds.[!first] = '0' do
    incr first
  done;
  if !first = n then zero
  else begin
    let last = ref (n - 1) in
    while ds.[!last] = '0' do
      decr last
    done;
    {
      sign;
      digits = String.sub ds !first (!last - !first + 1);
      exp = exp - !first;
    }
  end

let of_int n =
  if n = 0 then zero
  else
    let sign = if n < 0 then -1 else 1 in
    let s = string_of_int (abs n) in
    normalize sign s (String.length s)

let is_digit c = c >= '0' && c <= '9'

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let sign = ref 1 in
  if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then begin
    if s.[!pos] = '-' then sign := -1;
    incr pos
  end;
  let int_start = !pos in
  while !pos < n && is_digit s.[!pos] do
    incr pos
  done;
  let int_part = String.sub s int_start (!pos - int_start) in
  let frac_part =
    if !pos < n && s.[!pos] = '.' then begin
      incr pos;
      let fs = !pos in
      while !pos < n && is_digit s.[!pos] do
        incr pos
      done;
      String.sub s fs (!pos - fs)
    end
    else ""
  in
  if int_part = "" && frac_part = "" then None
  else begin
    let exp10 =
      if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
        incr pos;
        let esign =
          if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then begin
            let c = s.[!pos] in
            incr pos;
            if c = '-' then -1 else 1
          end
          else 1
        in
        let es = !pos in
        while !pos < n && is_digit s.[!pos] do
          incr pos
        done;
        if es = !pos then None
        else Some (esign * int_of_string (String.sub s es (!pos - es)))
      end
      else Some 0
    in
    match exp10 with
    | None -> None
    | Some e when !pos <> n -> ignore e; None
    | Some e ->
        Some (normalize !sign (int_part ^ frac_part) (String.length int_part + e))
  end

let of_string_exn s =
  match of_string s with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Decimal.of_string_exn: %S" s)

let of_float f =
  if f = 0.0 then zero
  else
    match of_string (Printf.sprintf "%.17g" f) with
    | Some d -> d
    | None -> invalid_arg "Decimal.of_float: not finite"

let to_float t =
  if t.sign = 0 then 0.0
  else
    float_of_string
      (Printf.sprintf "%s0.%se%d" (if t.sign < 0 then "-" else "") t.digits t.exp)

let to_string t =
  if t.sign = 0 then "0"
  else
    let s = if t.sign < 0 then "-" else "" in
    let nd = String.length t.digits in
    if t.exp >= nd && t.exp <= nd + 6 then
      s ^ t.digits ^ String.make (t.exp - nd) '0'
    else if t.exp > 0 && t.exp < nd then
      s ^ String.sub t.digits 0 t.exp ^ "." ^ String.sub t.digits t.exp (nd - t.exp)
    else if t.exp <= 0 && t.exp > -6 then
      s ^ "0." ^ String.make (-t.exp) '0' ^ t.digits
    else
      (* scientific notation *)
      let head = String.sub t.digits 0 1 in
      let tail = if nd > 1 then "." ^ String.sub t.digits 1 (nd - 1) else "" in
      Printf.sprintf "%s%s%se%d" s head tail (t.exp - 1)

(* Compare magnitudes of two nonzero values. *)
let compare_mag a b =
  if a.exp <> b.exp then compare a.exp b.exp else String.compare a.digits b.digits

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign = 0 then 0
  else if a.sign > 0 then compare_mag a b
  else compare_mag b a

let equal a b = compare a b = 0
let sign t = t.sign
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }

(* Addition via digit-string arithmetic: align both operands to a common
   scale, add/subtract digit strings. Digits are kept as strings to preserve
   arbitrary precision, matching the unbounded decimal of the paper's index
   keys. *)
let add_digit_strings a b =
  let la = String.length a and lb = String.length b in
  let l = max la lb in
  let out = Bytes.make (l + 1) '0' in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let da = if i < la then Char.code a.[la - 1 - i] - 48 else 0 in
    let db = if i < lb then Char.code b.[lb - 1 - i] - 48 else 0 in
    let s = da + db + !carry in
    Bytes.set out (l - i) (Char.chr (48 + (s mod 10)));
    carry := s / 10
  done;
  Bytes.set out 0 (Char.chr (48 + !carry));
  Bytes.to_string out

(* a - b where digit-string a >= b (same length, zero-padded). *)
let sub_digit_strings a b =
  let l = String.length a in
  let out = Bytes.make l '0' in
  let borrow = ref 0 in
  for i = 0 to l - 1 do
    let da = Char.code a.[l - 1 - i] - 48 in
    let db = if i < String.length b then Char.code b.[String.length b - 1 - i] - 48 else 0 in
    let d = da - db - !borrow in
    if d < 0 then begin
      Bytes.set out (l - 1 - i) (Char.chr (48 + d + 10));
      borrow := 1
    end
    else begin
      Bytes.set out (l - 1 - i) (Char.chr (48 + d));
      borrow := 0
    end
  done;
  Bytes.to_string out

(* Represent t as (digits, scale): value = sign * digits * 10^-scale. *)
let to_fixed t = (t.digits, String.length t.digits - t.exp)

let of_fixed sign digits scale =
  normalize sign digits (String.length digits - scale)

let pad_left s n = String.make (n - String.length s) '0' ^ s

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else begin
    let da, sa = to_fixed a and db, sb = to_fixed b in
    let scale = max sa sb in
    let da = da ^ String.make (scale - sa) '0' in
    let db = db ^ String.make (scale - sb) '0' in
    let l = max (String.length da) (String.length db) in
    let da = pad_left da l and db = pad_left db l in
    if a.sign = b.sign then of_fixed a.sign (add_digit_strings da db) scale
    else
      let c = String.compare da db in
      if c = 0 then zero
      else if c > 0 then of_fixed a.sign (sub_digit_strings da db) scale
      else of_fixed b.sign (sub_digit_strings db da) scale
  end

let sub a b = add a (neg b)

(* Key encoding: [class_byte] then, for nonzero values, a biased exponent
   (order-preserving i32) and the digit bytes with a terminator. Negative
   values complement exponent and digits so larger magnitude sorts first. *)
let encode_key t =
  let buf = Buffer.create 16 in
  if t.sign = 0 then Buffer.add_char buf '\x02'
  else begin
    Buffer.add_char buf (if t.sign > 0 then '\x03' else '\x01');
    let biased = t.exp + 0x4000_0000 in
    let e = if t.sign > 0 then biased else 0x7fff_ffff - biased in
    Buffer.add_char buf (Char.chr ((e lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((e lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((e lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (e land 0xff));
    String.iter
      (fun c ->
        let d = Char.code c in
        Buffer.add_char buf (Char.chr (if t.sign > 0 then d else 0xff - d)))
      t.digits;
    (* terminator: below any digit for positives, above any complemented
       digit for negatives, so prefixes order correctly *)
    Buffer.add_char buf (if t.sign > 0 then '\x00' else '\xff')
  end;
  Buffer.contents buf

let decode_key s pos =
  match s.[pos] with
  | '\x02' -> (zero, pos + 1)
  | ('\x01' | '\x03') as cls ->
      let positive = cls = '\x03' in
      let e =
        (Char.code s.[pos + 1] lsl 24)
        lor (Char.code s.[pos + 2] lsl 16)
        lor (Char.code s.[pos + 3] lsl 8)
        lor Char.code s.[pos + 4]
      in
      let e = if positive then e else 0x7fff_ffff - e in
      let exp = e - 0x4000_0000 in
      let buf = Buffer.create 8 in
      let p = ref (pos + 5) in
      let term = if positive then '\x00' else '\xff' in
      while s.[!p] <> term do
        let d = Char.code s.[!p] in
        Buffer.add_char buf (Char.chr (if positive then d else 0xff - d));
        incr p
      done;
      ( { sign = (if positive then 1 else -1); digits = Buffer.contents buf; exp },
        !p + 1 )
  | _ -> invalid_arg "Decimal.decode_key: bad class byte"

let skip_key s pos =
  match s.[pos] with
  | '\x02' -> pos + 1
  | ('\x01' | '\x03') as cls ->
      let term = if cls = '\x03' then '\x00' else '\xff' in
      let p = ref (pos + 5) in
      while s.[!p] <> term do
        incr p
      done;
      !p + 1
  | _ -> invalid_arg "Decimal.skip_key: bad class byte"

let pp fmt t = Format.pp_print_string fmt (to_string t)
