open Lsr_sim

type op =
  | Read_op of string
  | Write_op of string * string

type kind =
  | Read_only
  | Update

type spec = {
  kind : kind;
  ops : op list;
}

(* Key names are formatted once per generator, on first draw: every later
   draw of the same item shares the string. The table belongs to the
   generator, not to the process, so two runs allocate the same. *)
type generator = { params : Params.t; names : string array }

let generator params =
  { params; names = Array.make params.Params.key_space "" }

let key g rng =
  let params = g.params in
  let n = params.Params.key_space in
  let idx =
    if params.Params.key_skew > 0. then
      Rng.zipf rng ~n ~s:params.Params.key_skew - 1
    else Rng.uniform rng ~lo:0 ~hi:(n - 1)
  in
  match g.names.(idx) with
  | "" ->
    let name = Printf.sprintf "item:%06d" idx in
    g.names.(idx) <- name;
    name
  | name -> name

let value_of_bits bits = "v" ^ Int64.to_string bits
let fresh_value rng = value_of_bits (Rng.bits64 rng)

let generate g rng =
  let params = g.params in
  let size =
    Rng.uniform rng ~lo:params.Params.tran_size_min ~hi:params.Params.tran_size_max
  in
  let is_update = Rng.bernoulli rng ~p:params.Params.update_tran_prob in
  if not is_update then
    { kind = Read_only; ops = List.init size (fun _ -> Read_op (key g rng)) }
  else begin
    let ops =
      List.init size (fun _ ->
          if Rng.bernoulli rng ~p:params.Params.update_op_prob then
            Write_op (key g rng, fresh_value rng)
          else Read_op (key g rng))
    in
    (* Guarantee at least one write, else this is a read-only transaction in
       disguise and would skew the routed mix. *)
    let ops =
      if List.exists (function Write_op _ -> true | Read_op _ -> false) ops then
        ops
      else
        match ops with
        | Read_op k :: rest -> Write_op (k, fresh_value rng) :: rest
        | (Write_op _ :: _ | []) -> ops
    in
    { kind = Update; ops }
  end

let op_count spec = List.length spec.ops
let is_update spec = match spec.kind with Update -> true | Read_only -> false

let write_count spec =
  List.length
    (List.filter (function Write_op _ -> true | Read_op _ -> false) spec.ops)

let pp ppf spec =
  Format.fprintf ppf "%s[%d ops, %d writes]"
    (match spec.kind with Read_only -> "read-only" | Update -> "update")
    (op_count spec) (write_count spec)
