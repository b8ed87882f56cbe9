(** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) used to frame
    every record of a v2 segment file: a flipped bit anywhere in a
    payload is detected at read time instead of mis-decoding. *)

val digest : ?pos:int -> ?len:int -> string -> int
(** Checksum of [s.(pos .. pos+len-1)] (defaults: the whole string),
    as an unsigned 32-bit value in an OCaml int. *)
