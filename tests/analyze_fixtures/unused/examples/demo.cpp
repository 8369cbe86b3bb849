#include "mod/api.hpp"

int main() { return fx::driver_only() == 4 ? 0 : 1; }
