/* dlopen shim for plan-specialized shared objects.
 *
 * A handle is a malloc'd table of the function pointers resolved from
 * one .so, boxed in an Abstract block. Closing dlcloses and marks the
 * table; the table itself is kept (handles are cached process-wide,
 * so the few bytes are not worth a dangling-pointer risk).
 *
 * ompsim_jit_walk_hash releases the OCaml runtime for the duration of
 * the native walk: the C code touches only its own stack and the
 * parameter copy, and a long chunk must not delay other domains'
 * stop-the-world collections (ompsim_jit_reduce likewise). The
 * recover stub writes into an OCaml array, so it keeps the runtime
 * and stays short instead.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <dlfcn.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

#define OMPSIM_JIT_MAX_PARAMS 16
#define OMPSIM_JIT_MAX_DEPTH 16

typedef struct {
  void *dl;
  int64_t (*abi)(void);
  const char *(*fingerprint)(void);
  int64_t (*depth)(void);
  int64_t (*nparams)(void);
  int64_t (*trip)(const int64_t *);
  void (*recover)(const int64_t *, int64_t, int64_t *);
  uint64_t (*walk_hash)(const int64_t *, int64_t, int64_t);
  uint64_t (*reduce)(const int64_t *, int64_t, int64_t, int64_t);
} jit_handle;

#define Handle_val(v) (*(jit_handle **)Data_abstract_val(v))

static jit_handle *get_handle(value v)
{
  jit_handle *h = Handle_val(v);
  if (h == NULL || h->dl == NULL) caml_failwith("ompsim jit: handle is closed");
  return h;
}

CAMLprim value ompsim_jit_open(value vpath)
{
  CAMLparam1(vpath);
  CAMLlocal1(res);
  jit_handle *h;
  void *dl = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (dl == NULL) {
    const char *e = dlerror();
    caml_failwith(e != NULL ? e : "ompsim jit: dlopen failed");
  }
  h = malloc(sizeof *h);
  if (h == NULL) {
    dlclose(dl);
    caml_failwith("ompsim jit: out of memory");
  }
  h->dl = dl;
  h->abi = (int64_t (*)(void))dlsym(dl, "ompsim_abi");
  h->fingerprint = (const char *(*)(void))dlsym(dl, "ompsim_fingerprint");
  h->depth = (int64_t (*)(void))dlsym(dl, "ompsim_depth");
  h->nparams = (int64_t (*)(void))dlsym(dl, "ompsim_params");
  h->trip = (int64_t (*)(const int64_t *))dlsym(dl, "ompsim_trip");
  h->recover = (void (*)(const int64_t *, int64_t, int64_t *))dlsym(dl, "ompsim_recover");
  h->walk_hash =
    (uint64_t (*)(const int64_t *, int64_t, int64_t))dlsym(dl, "ompsim_walk_hash");
  h->reduce = (uint64_t (*)(const int64_t *, int64_t, int64_t, int64_t))dlsym(
    dl, "ompsim_reduce");
  if (h->abi == NULL || h->fingerprint == NULL || h->depth == NULL || h->nparams == NULL
      || h->trip == NULL || h->recover == NULL || h->walk_hash == NULL
      || h->reduce == NULL) {
    dlclose(dl);
    free(h);
    caml_failwith("ompsim jit: missing symbol in shared object");
  }
  res = caml_alloc(1, Abstract_tag);
  Handle_val(res) = h;
  CAMLreturn(res);
}

CAMLprim value ompsim_jit_close(value vh)
{
  jit_handle *h = Handle_val(vh);
  if (h != NULL && h->dl != NULL) {
    dlclose(h->dl);
    h->dl = NULL;
  }
  return Val_unit;
}

static int copy_params(value vp, int64_t *out)
{
  int n = (int)Wosize_val(vp);
  int i;
  if (n > OMPSIM_JIT_MAX_PARAMS)
    caml_invalid_argument("ompsim jit: too many parameters");
  for (i = 0; i < n; i++) out[i] = (int64_t)Long_val(Field(vp, i));
  return n;
}

CAMLprim value ompsim_jit_abi(value vh) { return Val_long((intnat)get_handle(vh)->abi()); }

CAMLprim value ompsim_jit_depth(value vh)
{
  return Val_long((intnat)get_handle(vh)->depth());
}

CAMLprim value ompsim_jit_params(value vh)
{
  return Val_long((intnat)get_handle(vh)->nparams());
}

CAMLprim value ompsim_jit_fingerprint(value vh)
{
  CAMLparam1(vh);
  const char *s = get_handle(vh)->fingerprint();
  CAMLreturn(caml_copy_string(s != NULL ? s : ""));
}

CAMLprim value ompsim_jit_trip(value vh, value vp)
{
  jit_handle *h = get_handle(vh);
  int64_t P[OMPSIM_JIT_MAX_PARAMS];
  copy_params(vp, P);
  return Val_long((intnat)h->trip(P));
}

CAMLprim value ompsim_jit_walk_hash(value vh, value vp, value vpc, value vlen)
{
  jit_handle *h = get_handle(vh);
  int64_t P[OMPSIM_JIT_MAX_PARAMS];
  int64_t pc = (int64_t)Long_val(vpc);
  int64_t len = (int64_t)Long_val(vlen);
  uint64_t acc;
  copy_params(vp, P);
  caml_enter_blocking_section();
  acc = h->walk_hash(P, pc, len);
  caml_leave_blocking_section();
  /* Val_long truncates to the 63-bit OCaml range: exactly the native-
     int wraparound the interpreted walk computes */
  return Val_long((intnat)acc);
}

/* op: 0 sum, 1 min, 2 max (the object's own encoding) */
CAMLprim value ompsim_jit_reduce(value vh, value vp, value vpc, value vlen, value vop)
{
  jit_handle *h = get_handle(vh);
  int64_t P[OMPSIM_JIT_MAX_PARAMS];
  int64_t pc = (int64_t)Long_val(vpc);
  int64_t len = (int64_t)Long_val(vlen);
  int64_t op = (int64_t)Long_val(vop);
  uint64_t acc;
  copy_params(vp, P);
  caml_enter_blocking_section();
  acc = h->reduce(P, pc, len, op);
  caml_leave_blocking_section();
  /* same 63-bit truncation as the walk: the interpreted sum
     accumulates in native ints, so the wrapped values agree exactly;
     an extremum is below 2^61 in magnitude and survives it unchanged */
  return Val_long((intnat)acc);
}

CAMLprim value ompsim_jit_recover(value vh, value vp, value vpc, value vidx)
{
  jit_handle *h = get_handle(vh);
  int64_t P[OMPSIM_JIT_MAX_PARAMS];
  int64_t X[OMPSIM_JIT_MAX_DEPTH];
  int d, k;
  copy_params(vp, P);
  d = (int)h->depth();
  if (d < 1 || d > OMPSIM_JIT_MAX_DEPTH || Wosize_val(vidx) < (uintnat)d)
    caml_invalid_argument("ompsim jit: bad index buffer");
  h->recover(P, (int64_t)Long_val(vpc), X);
  for (k = 0; k < d; k++) Field(vidx, k) = Val_long((intnat)X[k]);
  return Val_unit;
}
