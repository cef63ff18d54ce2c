(* Deterministic crash/fault injection for the physical I/O layer.

   A fault handle counts the physical operations (page/log writes and
   fsyncs) performed by the devices it is installed on; when the armed
   operation number is reached it "crashes the process": the write is
   dropped or torn at [keep] bytes and [Injected] is raised. Once fired,
   every later operation also raises, so a harness that swallows one
   [Injected] cannot accidentally keep doing I/O on the dead handle. *)

type kind =
  | Fail_write  (** drop the write entirely, then crash *)
  | Torn_write of int  (** write only the first [keep] bytes, then crash *)
  | Fail_fsync  (** crash at the fsync, before it completes *)

exception Injected of { op : string; kind : kind }

let kind_to_string = function
  | Fail_write -> "fail-write"
  | Torn_write k -> Printf.sprintf "torn-write(%d)" k
  | Fail_fsync -> "fail-fsync"

let () =
  Printexc.register_printer (function
    | Injected { op; kind } ->
        Some (Printf.sprintf "Fault.Injected(%s during %s)" (kind_to_string kind) op)
    | _ -> None)

(* sync: all mutable fields are guarded by [lock] — operations arrive
   concurrently from the WAL group-commit leader and from reader domains
   evicting dirty frames, and [next_op]'s count-and-decide is a
   read-modify-write that must be atomic for crash points to stay
   deterministic *)
type t = {
  lock : Mutex.t;
  mutable armed : kind option;
  mutable countdown : int; (* operations to let through before firing *)
  mutable fired : bool;
  mutable ops_seen : int;
}

let create () =
  { lock = Mutex.create (); armed = None; countdown = 0; fired = false; ops_seen = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let arm t ~after kind =
  if after < 1 then invalid_arg "Fault.arm: after must be >= 1";
  locked t (fun () ->
      t.armed <- Some kind;
      t.countdown <- after;
      t.fired <- false)

let arm_random t rng ~max_ops =
  let kind =
    match Rx_util.Prng.int rng 3 with
    | 0 -> Fail_write
    | 1 -> Torn_write (Rx_util.Prng.int rng 256)
    | _ -> Fail_fsync
  in
  arm t ~after:(1 + Rx_util.Prng.int rng (max 1 max_ops)) kind;
  kind

let fired t = locked t (fun () -> t.fired)
let ops_seen t = locked t (fun () -> t.ops_seen)

(* Decide the fate of the next operation. [`Proceed] lets it through;
   [`Torn k] instructs the caller to perform a partial write of [k] bytes
   and then call {!crashed}; [`Crash kind] means perform nothing and call
   {!crashed}. *)
let next_op t ~is_sync =
  locked t (fun () ->
      t.ops_seen <- t.ops_seen + 1;
      if t.fired then `Crash (match t.armed with Some k -> k | None -> Fail_write)
      else
        match t.armed with
        | None -> `Proceed
        | Some kind ->
            t.countdown <- t.countdown - 1;
            if t.countdown > 0 then `Proceed
            else begin
              (* an armed write fault lets fsyncs through and vice versa, so the
                 Nth *matching* operation is the one that fails *)
              match (kind, is_sync) with
              | Fail_fsync, false | (Fail_write | Torn_write _), true ->
                  t.countdown <- 1;
                  `Proceed
              | Fail_fsync, true -> `Crash Fail_fsync
              | Fail_write, false -> `Crash Fail_write
              | Torn_write k, false -> `Torn k
            end)

let crashed t ~op kind =
  locked t (fun () -> t.fired <- true);
  raise (Injected { op; kind })

let wrap_write fault ~op ~len ~write =
  match fault with
  | None -> write len
  | Some t -> (
      match next_op t ~is_sync:false with
      | `Proceed -> write len
      | `Torn keep ->
          write (min keep len);
          crashed t ~op (Torn_write keep)
      | `Crash kind -> crashed t ~op kind)

let wrap_fsync fault ~op ~sync =
  match fault with
  | None -> sync ()
  | Some t -> (
      match next_op t ~is_sync:true with
      | `Proceed -> sync ()
      | `Torn _ -> assert false
      | `Crash kind -> crashed t ~op kind)
