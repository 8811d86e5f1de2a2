(** Generation of collapsed OpenMP C loops.

    One generator per code shape presented in the paper:

    - {!naive}: recovery at every iteration (Fig. 3);
    - {!per_thread}: costly recovery once per thread, then §V
      incremental index advance (Fig. 4);
    - {!chunked}: recovery once per [schedule(static, CHUNK)] chunk
      (§V);
    - {!simd}: per-thread recovery + a [vlength]-deep index buffer and
      an [omp simd] compute loop (§VI-A);
    - {!gpu_warp}: the warp-coalesced distribution scheme, emitted as
      portable C emulating [W] threads of a warp (§VI-B);
    - {!original}: the untransformed nest with an OpenMP pragma on the
      outermost loop, for baseline builds.

    All generators take the loop body as statements referring to the
    original index names; index variables are declared by the generated
    code and listed in the OpenMP [private] clause. They take an
    {!Trahrhe.Inversion.t}, so they print every nest
    {!Trahrhe.Inversion.invert} accepts whose constants fit the counter
    type ({!fits_counter}), and recover indices by
    {!recovery_stmts}: the algorithm of {!Trahrhe.Recovery.recover},
    which the native tier's [ompsim_recover] prints too. *)

type config = {
  counter_ty : string;  (** C type of indices and [pc] (default "long") *)
  schedule : string;  (** OpenMP schedule clause body (default "static") *)
  extra_private : string list;  (** additional private variables *)
  paper : bool;
      (** when true, print the paper's closed forms
          ({!Trahrhe.Closed_form.select}) with a raw [floor], which
          floating rounding can put off by one; printers then fail
          with [Failure] when no closed form selects (default false:
          the exact recovery) *)
  declare_indices : bool;  (** emit index declarations (default true) *)
}

val default_config : config

(** [trip_count_expr inv ~ty] is the collapsed loop's upper bound as an
    exact integer C expression over the parameters. *)
val trip_count_expr : Trahrhe.Inversion.t -> ty:string -> string

(** [fits_counter inv] is [Ok ()] when every integer polynomial the
    printers evaluate stays below [2^62] with the parameters at
    magnitude 1 and each index within its loop bounds. Otherwise the
    constants alone overflow a 64-bit counter (an outer shift of
    [10^12] is squared by the ranking), the C would be wrong at every
    size, and the error names the polynomial. The runtime runs such
    nests in bigints. Larger parameters are the caller's to keep in
    range, as for the original loop's bounds. *)
val fits_counter : Trahrhe.Inversion.t -> (unit, string) result

(** [recovery_stmts ?config inv] recovers every index from [pc]: at
    each non-last level [k] the largest value in the level's range
    whose substituted ranking [r_sub.(k)] does not exceed [pc], by
    bracketed binary search, then the innermost level's exact formula
    ({!Trahrhe.Inversion.innermost}). It calls nothing
    from [<math.h>] or [<complex.h>]. In paper mode a level with a
    radical closed form prints [i = floor(...)] instead (§IV).
    @raise Failure when {!fits_counter} refuses [inv], or in paper mode
    when no closed form selects. *)
val recovery_stmts : ?config:config -> Trahrhe.Inversion.t -> C_ast.stmt list

(** [carry_stmts ?config inv q] advances level [q] (or the nearest outer
    level that is not exhausted) and resets level [q+1] to its lower
    bound, skipping empty rows at every level; it stops once level 0
    leaves its range. Levels deeper than [q+1] are the caller's. *)
val carry_stmts : ?config:config -> Trahrhe.Inversion.t -> int -> C_ast.stmt list

(** [increment_stmts ?config inv] is the §V incrementation advancing
    the indices to the next iteration as the original nest would: the
    innermost index steps, and {!carry_stmts} takes over at the end of
    its row. *)
val increment_stmts : ?config:config -> Trahrhe.Inversion.t -> C_ast.stmt list

val naive : ?config:config -> Trahrhe.Inversion.t -> body:C_ast.stmt list -> C_ast.stmt list

val per_thread :
  ?config:config -> Trahrhe.Inversion.t -> body:C_ast.stmt list -> C_ast.stmt list

val chunked :
  ?config:config -> chunk:int -> Trahrhe.Inversion.t -> body:C_ast.stmt list -> C_ast.stmt list

(** [simd ~vlength inv ~body_of] generates the §VI-A scheme;
    [body_of subst] must produce the body with every original index
    variable [v] replaced by [subst v] (a C expression indexing the
    per-thread tuple buffer). *)
val simd :
  ?config:config ->
  vlength:int ->
  Trahrhe.Inversion.t ->
  body_of:((string -> string) -> C_ast.stmt list) ->
  C_ast.stmt list

val gpu_warp :
  ?config:config -> warp:int -> Trahrhe.Inversion.t -> body:C_ast.stmt list -> C_ast.stmt list

(** [original nest ~parallel ~schedule ~body] prints the untransformed
    nest; when [parallel], an [omp parallel for] pragma with the given
    schedule is placed on the outermost loop. *)
val original :
  ?config:config ->
  Trahrhe.Nest.t ->
  parallel:bool ->
  schedule:string ->
  body:C_ast.stmt list ->
  C_ast.stmt list
