#include "mod/late.hpp"
#include "mod/nopragma.hpp"
#include "mod/unused.hpp"

int main() {
  return fx::late_value() + fx::nopragma_value() + spare_helper() > 0 ? 0 : 1;
}
