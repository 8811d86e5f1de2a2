long i;
long j;
int first_iteration = 1;
#pragma omp parallel for private(i, j) firstprivate(first_iteration) schedule(static)
for (long pc = 1; pc <= ((long)N*N + (long)N)/2; pc++) {
  if (first_iteration) {
    i = floor((-1.0)*((-1.0)*(double)N + sqrt(pow((double)N, 2.0) + (double)N + (-2.0)*(double)pc + (9.0/4.0)) + (-1.0/2.0)));
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
