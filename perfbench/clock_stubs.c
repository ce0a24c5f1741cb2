/* Nanosecond monotonic clock for the benchmark's timers. */

#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t perfbench_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  return caml_copy_int64(perfbench_now_ns_unboxed(unit));
}
