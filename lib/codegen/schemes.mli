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
    code and listed in the OpenMP [private] clause. They print the
    recovery {!Trahrhe.Closed_form.select} chose per level; the
    building blocks below it ({!search_stmts}, {!carry_stmts},
    {!increment_stmts}) need only the inversion, which is how the
    native tier emits its C without selecting a root. *)

type config = {
  counter_ty : string;  (** C type of indices and [pc] (default "long") *)
  schedule : string;  (** OpenMP schedule clause body (default "static") *)
  extra_private : string list;  (** additional private variables *)
  guarded : bool;
      (** when true, follow each floored closed form with an exact
          integer adjustment based on the substituted ranking — immune
          to floating rounding (library extension, default false) *)
  declare_indices : bool;  (** emit index declarations (default true) *)
}

val default_config : config

(** [trip_count_expr inv ~ty] is the collapsed loop's upper bound as an
    exact integer C expression over the parameters. *)
val trip_count_expr : Trahrhe.Inversion.t -> ty:string -> string

(** [recovery_stmts ?config forms] is the §IV index-recovery statement
    sequence ([i1 = floor(...); ...; ic = exact formula]). *)
val recovery_stmts : ?config:config -> Trahrhe.Closed_form.t -> C_ast.stmt list

(** [search_stmts ?config inv k] recovers level [k] exactly: the
    largest value in the level's range whose substituted ranking
    [r_sub.(k)] does not exceed [pc], by bracketed binary search. The
    levels above [k] must already hold their values. It is the
    recovery of a {!Trahrhe.Closed_form.Numeric} level. *)
val search_stmts : ?config:config -> Trahrhe.Inversion.t -> int -> C_ast.stmt list

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

val naive : ?config:config -> Trahrhe.Closed_form.t -> body:C_ast.stmt list -> C_ast.stmt list

val per_thread :
  ?config:config -> Trahrhe.Closed_form.t -> body:C_ast.stmt list -> C_ast.stmt list

val chunked :
  ?config:config -> chunk:int -> Trahrhe.Closed_form.t -> body:C_ast.stmt list -> C_ast.stmt list

(** [simd ~vlength forms ~body_of] generates the §VI-A scheme;
    [body_of subst] must produce the body with every original index
    variable [v] replaced by [subst v] (a C expression indexing the
    per-thread tuple buffer). *)
val simd :
  ?config:config ->
  vlength:int ->
  Trahrhe.Closed_form.t ->
  body_of:((string -> string) -> C_ast.stmt list) ->
  C_ast.stmt list

val gpu_warp :
  ?config:config -> warp:int -> Trahrhe.Closed_form.t -> body:C_ast.stmt list -> C_ast.stmt list

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
