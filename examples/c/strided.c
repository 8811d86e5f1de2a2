/* Non-unit strides (extension over the paper): the front-end rewrites
   the stride-4 loop onto a unit-stride surrogate iterator. Each (i, j)
   writes its own cell, so the collapsed loop prints the serial output
   at any thread count.

     dune exec bin/trahrhe.exe -- collapse examples/c/strided.c --scheme chunked:256 */
#include <stdio.h>

#ifndef N
#define N 128
#endif
static double a[N][4 * N];

int main(void) {
  long i, j;

  #pragma omp parallel for private(j) schedule(static) collapse(2)
  for (i = 0; i < 4 * N; i += 4)
    for (j = i; j < 4 * N; j++)
      a[i / 4][j] += (double)(i + j) * 0.5;

  double h = 0.0;
  for (i = 0; i < N; i++)
    for (j = 0; j < 4 * N; j++) h += a[i][j] * (double)((i + j) % 7 + 1);
  printf("%.12e\n", h);
  return 0;
}
