(** The paper's closed-form index recovery (§IV, Figures 3/7), as the
    C that [trahrhe collapse] emits by default evaluates it: each
    [Root] level floors the real part of its complex root with no
    correction, the innermost level takes its exact integer formula,
    and each [Numeric] level is the binary search of the monotone
    substituted ranking ({!Codegen.Schemes.search_stmts}).

    This is a reference, not a runtime path: raw [floor] can miss the
    index by one where floating rounding lands on the wrong side of an
    integer. {!Validate} counts its exact recoveries against
    enumeration, and the benches time it next to {!Recovery.recover},
    the exact recovery every runtime caller uses. *)

type t

(** [make inv ~param] stages the closed-form roots of [inv]
    ({!Inversion.stage_root}) under the parameter values [param].
    @raise Invalid_argument as {!Recovery.make} does. *)
val make : Inversion.t -> param:(string -> int) -> t

(** [recover t pc] recovers the indices of rank [pc] by the closed
    forms, into a fresh array. *)
val recover : t -> int -> int array
