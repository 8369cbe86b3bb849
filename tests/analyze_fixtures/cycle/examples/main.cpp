#include "alpha/a.hpp"

int main() { return fx::a_value() == 11 ? 0 : 1; }
