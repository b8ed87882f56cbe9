(* Table-driven CRC-32, reflected polynomial 0xEDB88320. *)

let table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let digest ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let t = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := t.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF
