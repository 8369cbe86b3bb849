#include "base/low.hpp"

int main() { return fx::low_value() == 3 ? 0 : 1; }
