long i;
long j;
int first_iteration = 1;
#pragma omp parallel for private(i, j) firstprivate(first_iteration) schedule(static)
for (long pc = 1; pc <= ((long)N*N + (long)N)/2; pc++) {
  if (first_iteration) {
    i = floor((-1.0)*((-1.0)*(double)N + sqrt(pow((double)N, 2.0) + (double)N + (-2.0)*(double)pc + (9.0/4.0)) + (-1.0/2.0)));
    /* exact adjustment of i against the ranking */
    {
      long lb_i = 0;
      long ub_i = ((long)N) - 1;
      if (i < lb_i) i = lb_i;
      if (i > ub_i) i = ub_i;
      while (i < ub_i && ((long)2*N*i - (long)i*i + (long)2*N - (long)i + (long)2)/2 <= pc) {
        i++;
      }
      while (i > lb_i && ((long)2*N*i - (long)i*i + (long)i + (long)2)/2 > pc) {
        i--;
      }
    }
    j = (-(long)2*N*i + (long)i*i + (long)i + (long)2*pc - (long)2)/2;
    first_iteration = 0;
  }
  /* statements(indices) */;
  j++;
  if (j >= (long)N) {
    do {
      i++;
      j = (long)i;
    } while (j >= (long)N && i < (long)N);
  }
}
