#include "mod/api.hpp"

namespace fx {

int used_export() {
  counters c;
  c.written_only = 3;
  ++c.written_only;
  return c.hits;
}

int unused_function() { return 2; }

int test_only() { return 3; }

int driver_only() { return used_export() + 4; }

}  // namespace fx
