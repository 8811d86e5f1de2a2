/* The paper's motivating example (Fig. 1): a correlation computation
   whose i/j loops are parallel but non-rectangular. OpenMP rejects the
   collapse clause on this nest; run the tool to rewrite it:

     dune exec bin/trahrhe.exe -- collapse examples/c/correlation.c

   (add --scheme naive | per-thread | chunked:N | simd:N, and --paper for
   the paper's closed-form roots of Fig. 3 with a raw floor) */
#include <stdio.h>
#include <stdlib.h>

#ifndef N
#define N 1500
#endif
static double a[N][N], b[N][N], c[N][N];

int main(void) {
  long i, j, k;
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++) {
      b[i][j] = (double)((i * 7 + j) % 13) / 3.0;
      c[i][j] = (double)((i - 2 * j) % 11) / 5.0;
    }

  #pragma omp parallel for private(j, k) schedule(static) collapse(2)
  for (i = 0; i < N - 1; i++)
    for (j = i + 1; j < N; j++) {
      for (k = 0; k < N; k++)
        a[i][j] += b[k][i] * c[k][j];
      a[j][i] = a[i][j];
    }

  double h = 0.0;
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      h += a[i][j] * (double)(i + 2 * j + 1);
  printf("%.12e\n", h);
  return 0;
}
