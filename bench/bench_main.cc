// The one main every bench binary links: pins glibc's allocator thresholds
// the way gyo_serve does, then runs Google Benchmark. Without the pin,
// glibc's dynamic rule returns each iteration's freed columns to the kernel
// and the next iteration faults them back in, so kernel rows time page
// faults: the 1-thread BM_Exec_KernelGrain rows at 2^20-2^21 probe rows
// swung by up to 40% between passes of one binary, and a 32 768-row Project
// read about 525 us against 262 us pinned (4-vCPU x86-64 VM, glibc 2.36).

#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // gyo_serve's values (examples/gyo_serve.cc): allocations above 32 MiB
  // still use mmap; each arena may keep up to 64 MiB of freed memory mapped.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
