let encode_string buf s =
  String.iter
    (fun c ->
      if c = '\x00' then Buffer.add_string buf "\x00\xff"
      else Buffer.add_char buf c)
    s;
  Buffer.add_string buf "\x00\x00"

let decode_string s pos =
  let buf = Buffer.create 16 in
  let rec loop p =
    match s.[p] with
    | '\x00' ->
        if s.[p + 1] = '\xff' then begin
          Buffer.add_char buf '\x00';
          loop (p + 2)
        end
        else (Buffer.contents buf, p + 2)
    | c ->
        Buffer.add_char buf c;
        loop (p + 1)
  in
  loop pos

let rec skip_string s pos =
  if s.[pos] <> '\x00' then skip_string s (pos + 1)
  else if s.[pos + 1] = '\xff' then skip_string s (pos + 2)
  else pos + 2

let encode_int64 buf n =
  let n = Int64.logxor n Int64.min_int in
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 n;
  Buffer.add_bytes buf b

let decode_int64 s pos =
  let n = String.get_int64_be s pos in
  (Int64.logxor n Int64.min_int, pos + 8)

let encode_int buf n = encode_int64 buf (Int64.of_int n)

let decode_int s pos =
  let v, p = decode_int64 s pos in
  (Int64.to_int v, p)

let encode_float buf f =
  let bits = Int64.bits_of_float f in
  let bits =
    if Int64.compare bits 0L < 0 then Int64.lognot bits
    else Int64.logor bits Int64.min_int
  in
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 bits;
  Buffer.add_bytes buf b

let decode_float s pos =
  let bits = String.get_int64_be s pos in
  let bits =
    if Int64.compare bits 0L < 0 then Int64.logand bits Int64.max_int
    else Int64.lognot bits
  in
  (Int64.float_of_bits bits, pos + 8)

let encode_decimal buf d = Buffer.add_string buf (Decimal.encode_key d)
let decode_decimal s pos = Decimal.decode_key s pos
let encode_raw_suffix buf s = Buffer.add_string buf s
