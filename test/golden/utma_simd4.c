long i;
long j;
long v;
int first_iteration = 1;
long T_i[4];
long T_j[4];
#pragma omp parallel for private(i, j, T_i, T_j, v) firstprivate(first_iteration) schedule(static)
for (long pc = 1; pc <= ((long)N*N + (long)N)/2; pc += 4) {
  if (first_iteration) {
    i = floor((-1.0)*((-1.0)*(double)N + sqrt(pow((double)N, 2.0) + (double)N + (-2.0)*(double)pc + (9.0/4.0)) + (-1.0/2.0)));
    j = (-(long)2*N*i + (long)i*i + (long)i + (long)2*pc - (long)2)/2;
    first_iteration = 0;
  }
  for (v = pc; v <= (pc + 4 - 1 < ((long)N*N + (long)N)/2 ? pc + 4 - 1 : ((long)N*N + (long)N)/2); v++) {
    T_i[v - pc] = i;
    T_j[v - pc] = j;
    j++;
    if (j >= (long)N) {
      do {
        i++;
        j = (long)i;
      } while (j >= (long)N && i < (long)N);
    }
  }
#pragma omp simd
  for (v = pc; v <= (pc + 4 - 1 < ((long)N*N + (long)N)/2 ? pc + 4 - 1 : ((long)N*N + (long)N)/2); v++) {
    /* statements(T_i[v - pc], T_j[v - pc]) */;
  }
}
