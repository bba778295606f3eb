(* Signal bits and bit vectors (sigspecs).

   A [bit] is either a constant (0, 1, or the unknown/don't-care X) or one
   bit of a named wire, identified by the wire id and a bit offset.  A
   [sigspec] is an array of bits, least-significant bit first, mirroring the
   RTLIL convention. *)

type bit =
  | C0
  | C1
  | Cx
  | Of_wire of int * int (* wire id, bit offset *)

type sigspec = bit array

let bit_equal (a : bit) (b : bit) =
  match a, b with
  | C0, C0 | C1, C1 | Cx, Cx -> true
  | Of_wire (w1, o1), Of_wire (w2, o2) -> w1 = w2 && o1 = o2
  | (C0 | C1 | Cx | Of_wire _), _ -> false

let bit_compare (a : bit) (b : bit) = Stdlib.compare a b

let bit_hash (b : bit) = Hashtbl.hash b

let is_const = function C0 | C1 | Cx -> true | Of_wire _ -> false

let is_fully_const (s : sigspec) = Array.for_all is_const s

let const_of_bool b = if b then C1 else C0

(* Build a [w]-bit constant sigspec from an integer, LSB first. *)
let of_int ~width v =
  Array.init width (fun i -> const_of_bool ((v lsr i) land 1 = 1))

(* Interpret a fully-constant sigspec as an unsigned integer.
   Raises [Invalid_argument] if any bit is X or a wire bit. *)
let to_int (s : sigspec) =
  Array.to_list s
  |> List.rev
  |> List.fold_left
       (fun acc b ->
         match b with
         | C0 -> acc * 2
         | C1 -> (acc * 2) + 1
         | Cx | Of_wire _ -> invalid_arg "Bits.to_int: non-binary bit")
       0

let width (s : sigspec) = Array.length s

let concat (parts : sigspec list) : sigspec = Array.concat parts

(* [slice s ~off ~len] extracts bits [off .. off+len-1]. *)
let slice (s : sigspec) ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length s then
    invalid_arg "Bits.slice"
  else Array.sub s off len

let equal (a : sigspec) (b : sigspec) =
  Array.length a = Array.length b
  && Array.for_all2 bit_equal a b

(* Extend or truncate [s] to [width] bits, zero-extending. *)
let extend (s : sigspec) ~width:w =
  let n = Array.length s in
  if n = w then s
  else if n > w then Array.sub s 0 w
  else Array.init w (fun i -> if i < n then s.(i) else C0)

let all_zero ~width = Array.make width C0

let pp_bit ppf = function
  | C0 -> Fmt.string ppf "0"
  | C1 -> Fmt.string ppf "1"
  | Cx -> Fmt.string ppf "x"
  | Of_wire (w, o) -> Fmt.pf ppf "w%d[%d]" w o

let pp ppf (s : sigspec) =
  Fmt.pf ppf "{";
  (* MSB first for readability *)
  for i = Array.length s - 1 downto 0 do
    pp_bit ppf s.(i);
    if i > 0 then Fmt.string ppf " "
  done;
  Fmt.pf ppf "}"

let to_string s = Fmt.str "%a" pp s

(* Hashtbl / Set / Map instances keyed by bit. *)
module Bit = struct
  type t = bit

  let equal = bit_equal
  let compare = bit_compare
  let hash = bit_hash
end

module Bit_tbl = Hashtbl.Make (Bit)
module Bit_set = Set.Make (Bit)
module Bit_map = Map.Make (Bit)
