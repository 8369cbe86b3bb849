#include "top/app.hpp"

int main() { return fx::app_value() == 8 ? 0 : 1; }
