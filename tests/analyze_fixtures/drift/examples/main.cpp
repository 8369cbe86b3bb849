#include "real/r.hpp"
#include "rogue/x.hpp"

int main() { return fx::r_value() + fx::x_value() == 3 ? 0 : 1; }
