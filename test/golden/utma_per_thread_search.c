long i;
long j;
int first_iteration = 1;
#pragma omp parallel for private(i, j) firstprivate(first_iteration) schedule(static)
for (long pc = 1; pc <= ((long)N*N + (long)N)/2; pc++) {
  if (first_iteration) {
    /* exact recovery of i: binary search on the monotone ranking */
    {
      long nlo_i = 0;
      long nhi_i = ((long)N) - 1;
      while (nlo_i < nhi_i) {
        long nmid_i = nlo_i + (nhi_i - nlo_i + 1) / 2;
        if (((long)2*N*nmid_i - (long)nmid_i*nmid_i + (long)nmid_i + (long)2)/2 <= pc) nlo_i = nmid_i; else nhi_i = nmid_i - 1;
      }
      i = nlo_i;
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
