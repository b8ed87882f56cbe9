(** Dense mutable bitsets over [0 .. n-1].

    The workhorse set representation of the analyses (the paper's §7
    notes that bit-mask representations of variable sets "can have a
    large payoff"; see {!Varset} for the list-based alternative used in
    the ablation benchmark). *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0 .. n-1]. *)

val length : t -> int
(** Universe size. *)

val add : t -> int -> unit

val remove : t -> int -> unit

val mem : t -> int -> bool

val is_empty : t -> bool

val cardinal : t -> int

val copy : t -> t

val clear : t -> unit

val union_into : dst:t -> t -> bool
(** [union_into ~dst src] adds [src] to [dst]; returns [true] iff [dst]
    changed. The primitive used by fixpoint loops. *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] removes every element of [src] from [dst]. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val equal : t -> t -> bool

val subset : t -> t -> bool

val disjoint : t -> t -> bool

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list

val of_list : int -> int list -> t

val pp : Format.formatter -> t -> unit
(** Prints ["{1, 5, 7}"]. *)
