(** Collapsing imperfectly nested loops (paper §IX outlook).

    An imperfect nest carries statements between loop levels:

    {v
    for (i ...) {
      S_pre_1;
      for (j ...) {
        S_pre_2;
        body;
        S_post_2;
      }
      S_post_1;
    }
    v}

    The classic statement-sinking normalization turns this into a
    perfect nest whose body guards each sunk statement by a position
    test on the inner iterators: [S_pre_k] runs when every iterator
    deeper than [k] sits at its lower bound, [S_post_k] when every one
    sits at its last value. The guards are exact under the nest model's
    assumption that inner ranges are nonempty (a level that can be
    empty would skip its parent's pre/post statements — rejected).

    The resulting perfect body collapses like any other; this module
    produces the guarded body to feed {!Schemes}. *)

type level_stmts = {
  pre : C_ast.stmt list;  (** before the next-inner loop *)
  post : C_ast.stmt list;  (** after the next-inner loop *)
}

(** [sink ?config nest ~levels ~innermost] builds the guarded perfect
    body: [levels] holds the pre/post statements of each non-innermost
    level (outermost first, length [depth - 1]) and [innermost] the
    innermost loop's body.
    @raise Invalid_argument on a length mismatch. *)
val sink :
  ?config:Schemes.config ->
  Trahrhe.Nest.t ->
  levels:level_stmts list ->
  innermost:C_ast.stmt list ->
  C_ast.stmt list

(** [collapse ?config inv ~levels ~innermost] is {!sink} composed
    with the per-thread collapsing scheme (Fig. 4 shape) on the guarded
    body. *)
val collapse :
  ?config:Schemes.config ->
  Trahrhe.Inversion.t ->
  levels:level_stmts list ->
  innermost:C_ast.stmt list ->
  C_ast.stmt list
