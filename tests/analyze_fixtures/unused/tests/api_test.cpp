#include "mod/api.hpp"

int main() { return fx::test_only() == 3 ? 0 : 1; }
