#pragma once

namespace fx {

int used_export();
int unused_function();
int test_only();
int driver_only();

struct counters {
  int hits = 0;
  int written_only = 0;
};

}  // namespace fx
