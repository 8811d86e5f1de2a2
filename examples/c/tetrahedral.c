/* The paper's 3-depth example (Fig. 6). Collapsed, the outer index is
   recovered by an exact search of the ranking polynomial:

     dune exec bin/trahrhe.exe -- collapse examples/c/tetrahedral.c

   With --paper it is the paper's cubic root, evaluated through complex
   arithmetic (Fig. 7); the tool then includes <math.h> and
   <complex.h> itself. Each (i, j, k) writes its own cell, so the
   collapsed loop prints the serial output at any thread count. */
#include <stdio.h>

#ifndef N
#define N 100
#endif
static double s[N][N][N];

int main(void) {
  long i, j, k;

  #pragma omp parallel for private(j, k) schedule(static) collapse(3)
  for (i = 0; i < N - 1; i++)
    for (j = 0; j < i + 1; j++)
      for (k = j; k < i + 1; k++)
        s[i][j][k] += (double)(i + j - k) * 0.25;

  double h = 0.0;
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < N; k++) h += s[i][j][k] * (double)((i + 2 * j + 3 * k) % 7 + 1);
  printf("%.12e\n", h);
  return 0;
}
